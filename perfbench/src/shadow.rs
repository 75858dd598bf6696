//! Offline shadow replays for the traced run: each slot's inputs fed to one
//! layer's public entry points at a time, each call timed as a span.

use std::io::Cursor;

use wdm_core::{Conversion, FiberScheduler, Policy, RequestVector, ScratchArena, WarmStats};
use wdm_interconnect::{ConnectionRequest, Interconnect, RejectReason, SlotResult};
use wdm_serve::protocol::{read_frame, write_frame};
use wdm_serve::{
    DenyReason, EngineConfig, Frame, Reply, ReserveRequest, SlotEngine, SubmitRequest, Verdict,
};

use crate::gen::{DEGREE, K, N};
use crate::spans::Spans;
use crate::{alloc, ratio, Layers};

/// Every this many slots, the shadow schedulers run the certified twin
/// (`schedule_slot_checked`) instead of the timed call.
pub const CERTIFY_EVERY: u64 = 64;

/// The conversion scheme every workload serves.
pub fn conversion() -> Result<Conversion, String> {
    Conversion::symmetric_circular(K, DEGREE).map_err(|e| e.to_string())
}

/// The policy every workload serves.
pub const POLICY: Policy = Policy::BreakFirstAvailable;

/// Counters of the shadow replays, summed over a run's traced passes.
#[derive(Debug, Default)]
pub struct ShadowTotals {
    /// Slots replayed.
    pub slots: u64,
    /// Requests replayed.
    pub requests: u64,
    /// Heap events inside the counted `advance_slot_into` calls.
    pub allocs: u64,
    /// `advance_slot_into` calls with allocation counting on.
    pub alloc_slots: u64,
    /// Warm-start counters of the interconnect over the replayed slots.
    pub warm: WarmStats,
    core_calls: u64,
    core_grants: u64,
    /// Matchings certified with `schedule_slot_checked`.
    pub core_certified: u64,
    submitted: u64,
    queue_full: u64,
    engine_slots: u64,
    drained: u64,
    reserves: u64,
    frames: u64,
    bytes: u64,
}

impl ShadowTotals {
    /// Adds the warm-start counters an interconnect gained between two
    /// snapshots.
    pub fn add_warm(&mut self, before: WarmStats, after: WarmStats) {
        self.warm.repaired += after.repaired - before.repaired;
        self.warm.fallback += after.fallback - before.fallback;
        self.warm.cold += after.cold - before.cold;
    }

    fn per_call(spans: &Spans, name: &str) -> f64 {
        let t = spans.totals(name);
        ratio(t.total_ns, t.count)
    }

    /// Shadow matcher time per slot: every fiber's `schedule_slot`.
    pub fn core_ns_per_slot(&self, spans: &Spans) -> f64 {
        Self::per_call(spans, "core.schedule_slot")
            * ratio(self.core_calls + self.core_certified, self.slots)
    }

    /// Shadow engine time per slot: `submit`, `reserve` and `run_slot`.
    pub fn engine_ns_per_slot(&self, spans: &Spans) -> f64 {
        let ns = ["engine.submit", "engine.reserve", "engine.run_slot"]
            .iter()
            .map(|n| spans.totals(n).total_ns)
            .sum();
        ratio(ns, self.slots)
    }

    /// Shadow codec time per slot: encode plus decode of its frames.
    pub fn protocol_ns_per_slot(&self, spans: &Spans) -> f64 {
        let ns =
            spans.totals("protocol.encode").total_ns + spans.totals("protocol.decode").total_ns;
        ratio(ns, self.slots)
    }

    /// The per-layer metrics every workload takes from its replay.
    pub fn layers(&self, spans: &Spans) -> Layers {
        let per = |name| Self::per_call(spans, name);
        let ic_ns = per("interconnect.advance_slot_into");
        let mut l = Layers::default();
        l.set("traffic.ns_per_slot", per("traffic.generate"));
        l.set("interconnect.ns_per_slot", ic_ns);
        l.set("interconnect.self_ns_per_slot", ic_ns - self.core_ns_per_slot(spans));
        l.set("interconnect.allocs_per_slot", ratio(self.allocs, self.alloc_slots));
        l.set("core.ns_per_call", per("core.schedule_slot"));
        l.set("core.calls_per_slot", ratio(self.core_calls + self.core_certified, self.slots));
        l.set("core.grants_per_call", ratio(self.core_grants, self.core_calls));
        l.set("core.repair_ratio", ratio(self.warm.repaired, self.warm.slots()));
        l.set("core.fallback_ratio", ratio(self.warm.fallback, self.warm.slots()));
        let t = |name| spans.totals(name).total_ns;
        l.set("protocol.encode_ns_per_frame", ratio(t("protocol.encode"), self.frames));
        l.set("protocol.decode_ns_per_frame", ratio(t("protocol.decode"), self.frames));
        l.set("protocol.bytes_per_request", ratio(self.bytes, self.requests));
        l.set("engine.submit_ns_per_request", ratio(t("engine.submit"), self.submitted));
        l.set("engine.run_slot_ns", per("engine.run_slot"));
        l.set("engine.requests_per_slot", ratio(self.drained, self.engine_slots));
        l.set("engine.queue_full", self.queue_full as f64);
        l.set("engine.reserve_ns", ratio(t("engine.reserve"), self.reserves));
        l
    }
}

/// Where the traced passes record: the spans and the shadow counters.
#[derive(Debug)]
pub struct Recorder {
    /// Span records and per-name totals.
    pub spans: Spans,
    /// Shadow replay counters.
    pub totals: ShadowTotals,
}

impl Recorder {
    /// An empty recorder keeping at most `capacity` span records.
    pub fn new(epoch: std::time::Instant, capacity: usize) -> Recorder {
        Recorder { spans: Spans::new(epoch, capacity), totals: ShadowTotals::default() }
    }
}

/// `Interconnect::advance_slot_into` inside an
/// `interconnect.advance_slot_into` span, with allocation counting on when
/// `count_allocs`. Returns the call's duration.
pub fn timed_advance(
    ic: &mut Interconnect,
    cells: &[ConnectionRequest],
    result: &mut SlotResult,
    slot: u64,
    count_allocs: bool,
    rec: &mut Recorder,
) -> Result<u64, String> {
    let Recorder { spans, totals } = rec;
    spans.enter("interconnect.advance_slot_into", slot);
    alloc::set_counting(count_allocs);
    let before = alloc::heap_events();
    let advanced = ic.advance_slot_into(cells, result);
    totals.allocs += alloc::heap_events() - before;
    alloc::set_counting(false);
    let ns = spans.exit();
    totals.alloc_slots += u64::from(count_allocs);
    advanced.map_err(|e| format!("slot {slot}: {e}"))?;
    Ok(ns)
}

/// What one shadow slot replays besides the interconnect's instance: the
/// SUBMIT batch of connection `conn`, and the reservation calls made with
/// it.
#[derive(Debug, Clone, Copy)]
pub struct Round<'a> {
    /// Connection the batch arrived on.
    pub conn: u64,
    /// The cell batch.
    pub batch: &'a [SubmitRequest],
    /// An advance reservation asked for with the batch.
    pub reserve: Option<ReserveRequest>,
    /// The client id of a reservation released before the batch.
    pub release: Option<u64>,
}

/// One traced pass's shadows: a `FiberScheduler` per output fiber, a
/// TCP-free `SlotEngine`, and the protocol codec.
#[derive(Debug)]
pub struct Shadows {
    schedulers: Vec<FiberScheduler>,
    arenas: Vec<ScratchArena>,
    requests: RequestVector,
    counts: Vec<i64>,
    engine: SlotEngine,
    /// Client request id → shadow ledger id of admitted reservations.
    held: Vec<(u64, u64)>,
    replies: Vec<Reply>,
    frames: Vec<Frame>,
    buf: Vec<u8>,
    decoded: Vec<Frame>,
}

impl Shadows {
    /// Cold shadows.
    pub fn new() -> Result<Shadows, String> {
        let conv = conversion()?;
        let engine =
            SlotEngine::new(EngineConfig::new(N, conv, POLICY)).map_err(|e| e.to_string())?;
        Ok(Shadows {
            schedulers: (0..N).map(|_| FiberScheduler::new(conv, POLICY)).collect(),
            arenas: (0..N).map(|_| ScratchArena::for_k(K)).collect(),
            requests: RequestVector::new(K),
            counts: vec![0; N * K],
            engine,
            held: Vec::new(),
            replies: Vec::with_capacity(N * K),
            frames: Vec::with_capacity(N * K + 2),
            buf: Vec::new(),
            decoded: Vec::with_capacity(N * K + 2),
        })
    }

    /// Replays one slot after `ic` ran `cells` into `result`, through the
    /// per-fiber schedulers, the engine and the codec. Returns the
    /// engine's cell grants.
    pub fn replay(
        &mut self,
        slot: u64,
        cells: &[ConnectionRequest],
        result: &SlotResult,
        ic: &Interconnect,
        round: Round<'_>,
        rec: &mut Recorder,
    ) -> Result<u64, String> {
        let Recorder { spans, totals } = rec;
        self.schedule(slot, cells, result, ic, spans, totals)?;
        let grants = self.run_engine(slot, round, spans, totals);
        self.codec(slot, round.batch, spans, totals)?;
        totals.slots += 1;
        totals.requests += round.batch.len() as u64;
        Ok(grants)
    }

    /// Each fiber's instance as the interconnect built it: its requests
    /// minus the source-busy rejections, over the channels occupied after
    /// the slot minus this slot's cell grants. Each shadow scheduler must
    /// grant exactly as many requests as the interconnect did on that fiber
    /// (both are maximum matchings of the same instance).
    fn schedule(
        &mut self,
        slot: u64,
        cells: &[ConnectionRequest],
        result: &SlotResult,
        ic: &Interconnect,
        spans: &mut Spans,
        totals: &mut ShadowTotals,
    ) -> Result<(), String> {
        self.counts.fill(0);
        for r in cells {
            self.counts[r.dst_fiber * K + r.src_wavelength] += 1;
        }
        for r in result.rejections.iter().filter(|r| r.reason == RejectReason::SourceBusy) {
            self.counts[r.request.dst_fiber * K + r.request.src_wavelength] -= 1;
        }
        let certify = slot.is_multiple_of(CERTIFY_EVERY);
        for fiber in 0..N {
            self.requests.clear();
            for w in 0..K {
                for _ in 0..self.counts[fiber * K + w] {
                    self.requests.add(w).map_err(|e| e.to_string())?;
                }
            }
            let mut mask = ic.occupied_mask(fiber);
            let mut live = 0usize;
            for g in result.grants.iter().filter(|g| g.request.dst_fiber == fiber) {
                mask.set_free(g.output_wavelength).map_err(|e| e.to_string())?;
                live += 1;
            }
            let (sched, arena, requests) =
                (&mut self.schedulers[fiber], &mut self.arenas[fiber], &self.requests);
            let stats = if certify {
                totals.core_certified += 1;
                sched.schedule_slot_checked(requests, &mask, arena)
            } else {
                totals.core_calls += 1;
                spans.span("core.schedule_slot", slot, || {
                    sched.schedule_slot(requests, &mask, arena)
                })
            }
            .map_err(|e| format!("slot {slot} fiber {fiber}: {e}"))?;
            if !certify {
                totals.core_grants += stats.granted as u64;
            }
            if stats.granted != live {
                return Err(format!(
                    "slot {slot} fiber {fiber}: shadow scheduler granted {}, the interconnect {live}",
                    stats.granted
                ));
            }
        }
        Ok(())
    }

    /// The round through the engine: release, submit, reserve, run_slot.
    /// Every reply lands in `self.replies`.
    fn run_engine(
        &mut self,
        slot: u64,
        round: Round<'_>,
        spans: &mut Spans,
        totals: &mut ShadowTotals,
    ) -> u64 {
        let Shadows { engine, held, replies, .. } = self;
        replies.clear();
        if let Some(pos) = round.release.and_then(|id| held.iter().position(|h| h.0 == id)) {
            let _released = engine.release(round.conn, held.swap_remove(pos).1);
        }
        spans.span("engine.submit", slot, || {
            replies.extend(round.batch.iter().filter_map(|&req| engine.submit(round.conn, req)));
        });
        totals.submitted += round.batch.len() as u64;
        totals.queue_full += replies
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Denied { reason: DenyReason::QueueFull, .. }))
            .count() as u64;
        if let Some(req) = round.reserve {
            let reply = spans.span("engine.reserve", slot, || engine.reserve(round.conn, req));
            totals.reserves += 1;
            if let Verdict::Reserved { reservation, .. } = reply.verdict {
                held.push((req.id, reservation));
            }
            replies.push(reply);
        }
        let summary = spans.span("engine.run_slot", slot, || engine.run_slot(replies));
        totals.engine_slots += 1;
        totals.drained += summary.admitted as u64;
        summary.grants as u64
    }

    /// The round's frames — the SUBMIT batch, one verdict frame per reply,
    /// and SLOT_COMPLETE — encoded into memory (`protocol.encode`), decoded
    /// back (`protocol.decode`), and checked unchanged.
    fn codec(
        &mut self,
        slot: u64,
        batch: &[SubmitRequest],
        spans: &mut Spans,
        totals: &mut ShadowTotals,
    ) -> Result<(), String> {
        let Shadows { replies, frames, buf, decoded, .. } = self;
        frames.clear();
        frames.push(Frame::Submit { requests: batch.to_vec() });
        frames.extend(replies.iter().map(reply_frame));
        frames.push(Frame::SlotComplete { slot });
        buf.clear();
        spans
            .span("protocol.encode", slot, || frames.iter().try_for_each(|f| write_frame(buf, f)))
            .map_err(|e| format!("encode: {e}"))?;
        decoded.clear();
        spans
            .span("protocol.decode", slot, || {
                let mut cursor = Cursor::new(buf.as_slice());
                (0..frames.len()).try_for_each(|_| read_frame(&mut cursor).map(|f| decoded.push(f)))
            })
            .map_err(|e| format!("decode: {e}"))?;
        if decoded != frames {
            return Err(format!("slot {slot}: the protocol round trip changed a frame"));
        }
        totals.frames += frames.len() as u64;
        totals.bytes += buf.len() as u64;
        Ok(())
    }
}

/// The wire frame a daemon sends for one reply.
fn reply_frame(r: &Reply) -> Frame {
    match r.verdict {
        Verdict::Granted { seq, output_wavelength } => {
            Frame::Grant { slot: r.slot, seq, id: r.id, output_wavelength }
        }
        Verdict::Denied { reason, retry_after_slots } => {
            Frame::Deny { slot: r.slot, id: r.id, reason, retry_after_slots }
        }
        Verdict::Reserved { reservation, start_slot } => {
            Frame::ReserveAck { id: r.id, reservation_id: reservation, start_slot }
        }
    }
}
