//! Input-buffered operation — the electronic-switch regime the paper cites
//! (\[7\] PIM, \[8\] iSLIP) transplanted onto the WDM wavelength machinery.
//!
//! The paper's interconnect is bufferless: requests that lose the output
//! contention are dropped ("optical buffers … are still very expensive").
//! Real deployments often terminate contention losses in *electronic* input
//! buffers instead. This module models that: packets that are not granted
//! wait at their input channel and re-contend in later slots. Two queueing
//! disciplines are provided:
//!
//! * [`QueueDiscipline::Fifo`] — one FIFO per input channel `(fiber, λ)`.
//!   Only the head-of-line packet can contend, so the switch exhibits the
//!   classic HOL-blocking throughput ceiling.
//! * [`QueueDiscipline::Voq`] — virtual output queues per
//!   `(input channel, destination fiber)` with an iterative request/grant
//!   loop: each iteration, every still-idle input channel proposes its next
//!   backlogged destination (round-robin pointer), each output fiber's
//!   wavelength scheduler grants a maximum matching over the proposals given
//!   the channels already committed, and grants are final. More iterations
//!   recover the throughput HOL blocking loses.
//!
//! Both disciplines reuse the per-output-fiber schedulers unchanged — the
//! wavelength contention is still resolved by First Available /
//! Break-and-First-Available; buffering only changes *which* requests are
//! presented each slot.

use std::collections::VecDeque;

use wdm_core::{ChannelMask, Conversion, Error, FiberScheduler, Policy, RequestVector};

use crate::arbitration::GrantResolver;
use crate::connection::ConnectionRequest;

/// How ungranted packets wait at the inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// One FIFO per input channel; only the head-of-line packet contends.
    Fifo,
    /// Virtual output queues with this many request/grant iterations per
    /// slot (1 behaves like FIFO without HOL blocking across destinations;
    /// 2–4 recover most of the residual loss).
    Voq {
        /// Request/grant iterations per slot (clamped to at least 1).
        iterations: usize,
    },
}

/// A packet waiting in an input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedPacket {
    dst_fiber: usize,
    arrived_slot: u64,
}

/// One transmitted packet and its queueing delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// Source input fiber.
    pub src_fiber: usize,
    /// Input wavelength.
    pub src_wavelength: usize,
    /// Destination output fiber.
    pub dst_fiber: usize,
    /// Output wavelength channel used.
    pub output_wavelength: usize,
    /// Slots spent waiting in the input buffer (0 = sent on arrival slot).
    pub delay: u64,
}

/// Outcome of one buffered slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferedSlotResult {
    /// Packets sent through the fabric this slot.
    pub transmitted: Vec<Transmission>,
    /// Arrivals dropped because their queue was full (drop-tail).
    pub dropped: usize,
    /// Total packets left waiting after the slot.
    pub backlog: usize,
}

/// An input-buffered `N×N` WDM interconnect (single-slot packets).
#[derive(Debug, Clone)]
pub struct BufferedInterconnect {
    n: usize,
    conversion: Conversion,
    discipline: QueueDiscipline,
    /// Per-queue capacity (packets). Queues are per input channel (FIFO) or
    /// per (input channel, destination) (VOQ).
    capacity: usize,
    scheduler: FiberScheduler,
    resolvers: Vec<GrantResolver>,
    /// `queues[fiber * k + w][dst]` (VOQ) or `queues[fiber * k + w][0]`
    /// (FIFO, destination stored per packet).
    queues: Vec<Vec<VecDeque<QueuedPacket>>>,
    /// VOQ round-robin destination pointer per input channel.
    dst_pointer: Vec<usize>,
    slot: u64,
}

impl BufferedInterconnect {
    /// Builds the buffered switch. `capacity` bounds each queue (drop-tail);
    /// use `usize::MAX` for effectively infinite buffers.
    pub fn new(
        n: usize,
        conversion: Conversion,
        policy: Policy,
        discipline: QueueDiscipline,
        capacity: usize,
    ) -> Result<BufferedInterconnect, Error> {
        if n == 0 {
            return Err(Error::ZeroFibers);
        }
        if capacity == 0 {
            return Err(Error::LengthMismatch { expected: 1, actual: 0 });
        }
        let k = conversion.k();
        let per_channel = match discipline {
            QueueDiscipline::Fifo => 1,
            QueueDiscipline::Voq { .. } => n,
        };
        Ok(BufferedInterconnect {
            n,
            conversion,
            discipline,
            capacity,
            scheduler: FiberScheduler::new(conversion, policy),
            resolvers: (0..n).map(|_| GrantResolver::new(n, k)).collect(),
            queues: vec![vec![VecDeque::new(); per_channel]; n * k],
            dst_pointer: vec![0; n * k],
            slot: 0,
        })
    }

    /// Number of fibers per side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of wavelengths per fiber.
    pub fn k(&self) -> usize {
        self.conversion.k()
    }

    /// Packets currently waiting.
    pub fn backlog(&self) -> usize {
        self.queues.iter().flatten().map(VecDeque::len).sum()
    }

    /// Advances one slot: enqueue `arrivals`, contend, transmit.
    ///
    /// Arrivals must be single-slot packets (`duration == 1`); multi-slot
    /// holding is a property of the bufferless circuit modes.
    pub fn advance_slot(
        &mut self,
        arrivals: &[ConnectionRequest],
    ) -> Result<BufferedSlotResult, Error> {
        let k = self.k();
        for r in arrivals {
            r.validate(self.n, k)?;
            if r.duration != 1 {
                return Err(Error::LengthMismatch { expected: 1, actual: r.duration as usize });
            }
        }
        let mut dropped = 0usize;
        for r in arrivals {
            let channel = r.src_fiber * k + r.src_wavelength;
            let queue_idx = match self.discipline {
                QueueDiscipline::Fifo => 0,
                QueueDiscipline::Voq { .. } => r.dst_fiber,
            };
            let queue = &mut self.queues[channel][queue_idx];
            if queue.len() >= self.capacity {
                dropped += 1;
            } else {
                queue.push_back(QueuedPacket { dst_fiber: r.dst_fiber, arrived_slot: self.slot });
            }
        }

        let transmitted = match self.discipline {
            QueueDiscipline::Fifo => self.contend_fifo()?,
            QueueDiscipline::Voq { iterations } => self.contend_voq(iterations.max(1))?,
        };

        self.slot += 1;
        Ok(BufferedSlotResult { transmitted, dropped, backlog: self.backlog() })
    }

    /// FIFO: the head-of-line packet of each channel contends for its
    /// destination; one scheduling round.
    fn contend_fifo(&mut self) -> Result<Vec<Transmission>, Error> {
        let k = self.k();
        // Proposals: (channel, dst) from each non-empty queue head.
        let proposals: Vec<(usize, usize)> = (0..self.n * k)
            .filter_map(|ch| self.queues[ch][0].front().map(|p| (ch, p.dst_fiber)))
            .collect();
        let mut committed = vec![false; self.n * k];
        let masks = vec![ChannelMask::all_free(k); self.n];
        let grants = self.schedule_round(&proposals, &mut committed, masks)?;
        Ok(self.apply_grants(grants))
    }

    /// VOQ: iterative rounds; each idle channel proposes its next
    /// backlogged destination by round-robin, channels granted in earlier
    /// rounds stay committed and their output channels stay occupied.
    fn contend_voq(&mut self, iterations: usize) -> Result<Vec<Transmission>, Error> {
        let k = self.k();
        let mut committed = vec![false; self.n * k];
        let mut masks = vec![ChannelMask::all_free(k); self.n];
        // Per-slot proposal cursor: starts at the persistent pointer; a
        // channel whose proposal loses an iteration moves on to its next
        // backlogged destination (desynchronization, as in iSLIP).
        let mut cursor = self.dst_pointer.clone();
        let mut all = Vec::new();
        for _ in 0..iterations {
            let mut proposals = Vec::new();
            for ch in 0..self.n * k {
                if committed[ch] {
                    continue;
                }
                let start = cursor[ch];
                let pick = (0..self.n)
                    .map(|off| (start + off) % self.n)
                    .find(|&dst| !self.queues[ch][dst].is_empty());
                if let Some(dst) = pick {
                    proposals.push((ch, dst));
                }
            }
            if proposals.is_empty() {
                break;
            }
            let grants = self.schedule_round(&proposals, &mut committed, masks.clone())?;
            // Losers retry a different destination next iteration; winners
            // advance their persistent pointer (iSLIP update rule).
            for &(ch, dst) in &proposals {
                if !committed[ch] {
                    cursor[ch] = (dst + 1) % self.n;
                }
            }
            if grants.iter().all(Vec::is_empty) {
                continue;
            }
            for (dst, fiber_grants) in grants.iter().enumerate() {
                for &(ch, out_w) in fiber_grants {
                    masks[dst].set_occupied(out_w)?;
                    self.dst_pointer[ch] = (dst + 1) % self.n;
                }
            }
            all.extend(self.apply_grants(grants));
        }
        Ok(all)
    }

    /// One scheduling round: group proposals by destination, run the
    /// per-fiber wavelength scheduler on each group, resolve to concrete
    /// channels. Returns per-destination lists of (channel, out_wavelength)
    /// and marks granted channels committed.
    #[allow(clippy::type_complexity)]
    fn schedule_round(
        &mut self,
        proposals: &[(usize, usize)],
        committed: &mut [bool],
        masks: Vec<ChannelMask>,
    ) -> Result<Vec<Vec<(usize, usize)>>, Error> {
        let k = self.k();
        let mut per_dst: Vec<Vec<ConnectionRequest>> = vec![Vec::new(); self.n];
        for &(ch, dst) in proposals {
            per_dst[dst].push(ConnectionRequest::packet(ch / k, ch % k, dst));
        }
        let mut out = vec![Vec::new(); self.n];
        for (dst, candidates) in per_dst.iter().enumerate() {
            if candidates.is_empty() {
                continue;
            }
            let mut rv = RequestVector::new(k);
            for c in candidates {
                rv.add(c.src_wavelength)?;
            }
            let schedule = self.scheduler.schedule_with_mask(&rv, &masks[dst])?;
            let (grants, _leftover) =
                self.resolvers[dst].resolve(schedule.assignments(), candidates);
            for g in grants {
                let ch = g.request.src_fiber * k + g.request.src_wavelength;
                debug_assert!(!committed[ch]);
                committed[ch] = true;
                out[dst].push((ch, g.output_wavelength));
            }
        }
        Ok(out)
    }

    /// Dequeues the granted packets and records their delays.
    fn apply_grants(&mut self, grants: Vec<Vec<(usize, usize)>>) -> Vec<Transmission> {
        let k = self.k();
        let mut out = Vec::new();
        for (dst, fiber_grants) in grants.into_iter().enumerate() {
            for (ch, out_w) in fiber_grants {
                let queue_idx = match self.discipline {
                    QueueDiscipline::Fifo => 0,
                    QueueDiscipline::Voq { .. } => dst,
                };
                let Some(packet) = self.queues[ch][queue_idx].pop_front() else {
                    unreachable!("granted channels have a queued packet")
                };
                debug_assert_eq!(packet.dst_fiber, dst);
                out.push(Transmission {
                    src_fiber: ch / k,
                    src_wavelength: ch % k,
                    dst_fiber: dst,
                    output_wavelength: out_w,
                    delay: self.slot - packet.arrived_slot,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> Conversion {
        Conversion::symmetric_circular(4, 3).unwrap()
    }

    fn mk(discipline: QueueDiscipline) -> BufferedInterconnect {
        BufferedInterconnect::new(2, conv(), Policy::Auto, discipline, 64).unwrap()
    }

    #[test]
    fn packet_flows_through_without_contention() {
        for discipline in [QueueDiscipline::Fifo, QueueDiscipline::Voq { iterations: 2 }] {
            let mut sw = mk(discipline);
            let r = sw.advance_slot(&[ConnectionRequest::packet(0, 1, 1)]).unwrap();
            assert_eq!(r.transmitted.len(), 1);
            assert_eq!(r.transmitted[0].delay, 0);
            assert_eq!(r.backlog, 0);
            assert_eq!(r.dropped, 0);
        }
    }

    #[test]
    fn losers_wait_and_retransmit() {
        // k=4, d=3; five packets on the same wavelength to the same fiber:
        // only 3 channels are reachable from one wavelength, so at most 3
        // go through; the rest wait (bufferless mode would drop them).
        let mut sw =
            BufferedInterconnect::new(8, conv(), Policy::Auto, QueueDiscipline::Fifo, 64).unwrap();
        let arrivals: Vec<ConnectionRequest> =
            (0..5).map(|fiber| ConnectionRequest::packet(fiber, 0, 0)).collect();
        let r1 = sw.advance_slot(&arrivals).unwrap();
        assert_eq!(r1.transmitted.len(), 3, "λ0 reaches 3 channels");
        assert_eq!(r1.backlog, 2);
        let r2 = sw.advance_slot(&[]).unwrap();
        assert_eq!(r2.transmitted.len(), 2);
        assert!(r2.transmitted.iter().all(|t| t.delay == 1));
        assert_eq!(r2.backlog, 0);
    }

    #[test]
    fn fifo_hol_blocking_voq_does_not() {
        // Two packets queued on channel (0, λ0): first to fiber 0, second to
        // fiber 1. Fiber 0's reachable channels are all taken by other
        // inputs this slot; FIFO blocks the fiber-1 packet behind the HOL,
        // VOQ sends it.
        let run = |discipline| {
            let mut sw =
                BufferedInterconnect::new(8, conv(), Policy::Auto, discipline, 64).unwrap();
            // Slot 0: queue the two packets on (0, λ0) plus three competitors
            // on distinct channels that saturate fiber 0's λ0-range {3,0,1}…
            // Competitors on λ3, λ0, λ1 from other fibers, arriving first is
            // irrelevant — the matching considers all. To force (0,λ0) to
            // lose fiber 0, give competitors wavelengths covering its whole
            // range with higher-priority positions… simplest: 6 competitors
            // on fiber0-bound λ0 from lower-numbered… fibers are symmetric;
            // instead saturate with k=4 packets on 4 distinct wavelengths.
            let mut arrivals = vec![
                ConnectionRequest::packet(0, 0, 0),
                ConnectionRequest::packet(0, 0, 1), // will be dropped: same channel!
            ];
            // One packet per wavelength from other fibers, all to fiber 0.
            for w in 0..4 {
                arrivals.push(ConnectionRequest::packet(1 + w, w, 0));
            }
            let _ = &mut arrivals;
            let mut sent_to_1 = 0usize;
            // Same input channel twice in one slot is fine for buffers: both
            // queue. Run two slots.
            let r = sw.advance_slot(&arrivals).unwrap();
            sent_to_1 += r.transmitted.iter().filter(|t| t.dst_fiber == 1).count();
            let r = sw.advance_slot(&[]).unwrap();
            sent_to_1 += r.transmitted.iter().filter(|t| t.dst_fiber == 1).count();
            sent_to_1
        };
        let fifo = run(QueueDiscipline::Fifo);
        let voq = run(QueueDiscipline::Voq { iterations: 4 });
        assert!(voq >= fifo, "VOQ ({voq}) must not lose to FIFO ({fifo})");
    }

    #[test]
    fn drop_tail_respects_capacity() {
        let mut sw =
            BufferedInterconnect::new(2, conv(), Policy::Auto, QueueDiscipline::Fifo, 2).unwrap();
        // 4 arrivals on one channel in one slot: capacity 2 → 2 dropped.
        let arrivals = vec![ConnectionRequest::packet(0, 0, 1); 4];
        let r = sw.advance_slot(&arrivals).unwrap();
        assert_eq!(r.dropped, 2);
        assert_eq!(r.transmitted.len(), 1);
        assert_eq!(r.backlog, 1);
    }

    #[test]
    fn rejects_multi_slot_packets_and_bad_requests() {
        let mut sw = mk(QueueDiscipline::Fifo);
        assert!(sw.advance_slot(&[ConnectionRequest::burst(0, 0, 0, 2)]).is_err());
        assert!(sw.advance_slot(&[ConnectionRequest::packet(2, 0, 0)]).is_err());
        assert!(
            BufferedInterconnect::new(0, conv(), Policy::Auto, QueueDiscipline::Fifo, 4).is_err()
        );
        assert!(
            BufferedInterconnect::new(2, conv(), Policy::Auto, QueueDiscipline::Fifo, 0).is_err()
        );
    }

    #[test]
    fn conservation_over_time() {
        let mut sw = mk(QueueDiscipline::Voq { iterations: 3 });
        let mut arrived = 0usize;
        let mut sent = 0usize;
        let mut dropped = 0usize;
        for slot in 0..50u64 {
            let arrivals: Vec<ConnectionRequest> = (0..2)
                .flat_map(|fiber| {
                    (0..4)
                        .filter(move |w| (fiber * 7 + w * 3 + slot as usize).is_multiple_of(3))
                        .map(move |w| ConnectionRequest::packet(fiber, w, (fiber + w) % 2))
                })
                .collect();
            arrived += arrivals.len();
            let r = sw.advance_slot(&arrivals).unwrap();
            sent += r.transmitted.len();
            dropped += r.dropped;
            assert_eq!(arrived, sent + dropped + r.backlog);
            // Physical validity per slot: distinct output channels per dst,
            // conversion range respected.
            for dst in 0..2 {
                let mut used = std::collections::HashSet::new();
                for t in r.transmitted.iter().filter(|t| t.dst_fiber == dst) {
                    assert!(used.insert(t.output_wavelength));
                    assert!(conv().converts(t.src_wavelength, t.output_wavelength));
                }
            }
        }
        // Drain.
        for _ in 0..50 {
            let r = sw.advance_slot(&[]).unwrap();
            sent += r.transmitted.len();
        }
        assert_eq!(sw.backlog(), 0);
        assert_eq!(arrived, sent + dropped);
    }

    #[test]
    fn each_channel_sends_at_most_once_per_slot() {
        let mut sw = mk(QueueDiscipline::Voq { iterations: 4 });
        // Pile 6 packets on one channel toward both destinations.
        let mut arrivals = Vec::new();
        for i in 0..6 {
            arrivals.push(ConnectionRequest::packet(0, 0, i % 2));
        }
        let r = sw.advance_slot(&arrivals).unwrap();
        assert_eq!(r.transmitted.len(), 1, "one transmitter per channel per slot");
        assert_eq!(r.backlog, 5);
    }
}
