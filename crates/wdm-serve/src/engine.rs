//! The TCP-free slot engine: bounded per-destination admission queues in
//! front of the offline [`Interconnect`].
//!
//! This is the daemon's whole decision core, deliberately free of any I/O
//! so the differential and zero-allocation tests can drive it directly.
//! Requests are admitted into one bounded queue per destination fiber (the
//! shard boundary — the paper's per-output-fiber partition); each slot
//! drains the queues in fiber order, FIFO within a fiber, and feeds the
//! batch to [`Interconnect::advance_slot_into`], which runs the `N`
//! independent [`wdm_interconnect::FiberUnit`] schedulers. Because the
//! daemon and the offline engine execute the *same* code on the *same*
//! input order, a recorded session replays bit-for-bit.
//!
//! Overload policy: admission never buffers without bound. A full shard
//! queue denies immediately with [`DenyReason::QueueFull`] and a
//! retry-after hint of one slot (queues drain fully every slot, so the
//! hint is exact, not heuristic).
//!
//! Replies are mapped back to their `(conn, id)` tags in O(1) per verdict
//! through channel uniqueness: source-side admission lets at most one
//! request per input channel (`src_fiber`, `src_wavelength`) through each
//! slot, and always the first one in batch order. A table of the first
//! batch entry on every channel therefore names the entry behind each
//! grant and each contention loss — even when the batch holds identical
//! requests from different clients — and the source-busy denies, which the
//! engine emits in batch order, take the remaining entries in order.
//!
//! At steady state (queues and scratch buffers grown to their working
//! sizes, trace recording off) [`SlotEngine::run_slot`] performs zero heap
//! allocations — pinned by the `wdm-alloc-count` regression.

use std::sync::Arc;

use wdm_attr::{allow_reach, hot_path, panic_free};
use wdm_core::{Conversion, ConversionKind, Error, Policy};
use wdm_interconnect::{
    ConnectionRequest, DisruptionImpact, Interconnect, InterconnectConfig, PreemptionPolicy,
    RejectReason, Reservation, ReservationRequest, SlotResult, DEFAULT_RESERVATION_HORIZON,
};
use wdm_scenario::{CompiledPlan, DisruptionChange, DisruptionEvent};
use wdm_sim::scenario::{apply_disruption, PlanFabric, ScenarioDriver};
use wdm_sim::trace::{SessionTrace, TraceConfig};

use crate::protocol::{DenyReason, ProtocolError, ReserveRequest, SubmitRequest};
use crate::serve_sync::{AdmitRejection, ShardQueues};

/// Configuration of a [`SlotEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of input = output fibers (`N`).
    pub n: usize,
    /// The wavelength conversion scheme.
    pub conversion: Conversion,
    /// Wavelength-level scheduling policy.
    pub policy: Policy,
    /// Bounded admission-queue capacity per destination-fiber shard.
    pub queue_capacity: usize,
    /// Record a [`SessionTrace`] for offline replay (allocates per slot —
    /// leave off when pinning the zero-allocation path).
    pub record_trace: bool,
    /// Advance-reservation admission horizon in slots.
    pub reservation_horizon: u64,
    /// How activating reservations meet same-slot cell traffic.
    pub preemption: PreemptionPolicy,
}

impl EngineConfig {
    /// A config with the daemon's default shard queue capacity (1024).
    pub fn new(n: usize, conversion: Conversion, policy: Policy) -> EngineConfig {
        EngineConfig {
            n,
            conversion,
            policy,
            queue_capacity: 1024,
            record_trace: false,
            reservation_horizon: DEFAULT_RESERVATION_HORIZON,
            preemption: PreemptionPolicy::default(),
        }
    }

    /// Sets the per-shard admission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> EngineConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Enables session-trace recording.
    pub fn with_trace(mut self) -> EngineConfig {
        self.record_trace = true;
        self
    }

    /// Sets the advance-reservation admission horizon.
    pub fn with_reservation_horizon(mut self, horizon: u64) -> EngineConfig {
        self.reservation_horizon = horizon;
        self
    }

    /// Sets the reservation preemption policy.
    pub fn with_preemption(mut self, preemption: PreemptionPolicy) -> EngineConfig {
        self.preemption = preemption;
        self
    }
}

/// The daemon's answer to one submitted request. Must be delivered — a
/// dropped reply strands the client's request forever, hence `must_use`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct Reply {
    /// Connection the submitting client arrived on.
    pub conn: u64,
    /// The client-chosen request id.
    pub id: u64,
    /// Slot the decision was made.
    pub slot: u64,
    /// Grant or deny.
    pub verdict: Verdict,
}

/// The decision inside a [`Reply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Granted: an output channel was assigned on the destination fiber.
    Granted {
        /// Per-slot grant sequence number.
        seq: u64,
        /// The assigned output wavelength.
        output_wavelength: u32,
    },
    /// Denied, with the reason and a retry hint.
    Denied {
        /// Why.
        reason: DenyReason,
        /// Slots to wait before resubmitting (0 = don't retry).
        retry_after_slots: u32,
    },
    /// An advance reservation was admitted into the capacity ledger; a
    /// `Granted` or `Denied` follows when the start slot runs.
    Reserved {
        /// The ledger-assigned reservation id (usable in a release).
        reservation: u64,
        /// Absolute slot the hold will activate.
        start_slot: u64,
    },
}

/// What one slot did, in aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct SlotSummary {
    /// The slot that just ran (0-based).
    pub slot: u64,
    /// Requests drained from the shard queues into the engine.
    pub admitted: usize,
    /// Requests granted.
    pub grants: usize,
    /// Requests denied (source-busy + output contention).
    pub denies: usize,
    /// Earlier connections that completed at the start of this slot.
    pub completed: usize,
    /// Advance reservations that activated and were granted this slot.
    pub reservation_grants: usize,
    /// Advance reservations that expired at activation this slot.
    pub reservation_expiries: usize,
}

/// A queued request remembering which connection and client id it answers.
#[derive(Debug, Clone, Copy)]
struct Tagged {
    conn: u64,
    id: u64,
    request: ConnectionRequest,
}

/// One admitted-but-not-yet-activated reservation: the ledger id, the
/// owning connection, the client-chosen wire id, and the destination fiber
/// (kept so an outage cancelling the booking can answer its client — the
/// ledger reports cancellations only as a count).
#[derive(Debug, Clone, Copy)]
struct Hold {
    rid: u64,
    conn: u64,
    id: u64,
    dst_fiber: usize,
}

/// Bounded per-destination admission queues feeding the offline engine —
/// see the module docs for the full slot discipline.
#[derive(Debug)]
pub struct SlotEngine {
    engine: Interconnect,
    policy: Policy,
    queues: ShardQueues<Tagged>,
    // Per-slot scratch, reused across slots (zero allocations at steady
    // state): the drained batch, its (conn, id) tags, the engine result,
    // and the flags marking batch entries the engine admitted.
    batch: Vec<ConnectionRequest>,
    tags: Vec<(u64, u64)>,
    result: SlotResult,
    admitted: Vec<bool>,
    // The first batch entry on each input channel (`src_fiber * k +
    // src_wavelength`), or `NO_ENTRY`. Sized `n * k` at construction;
    // only the entries this slot's batch touched are reset after it.
    first_on_channel: Vec<usize>,
    // Admitted-but-not-yet-activated reservations. An entry leaves the
    // map exactly once — at activation (grant or expiry), at an
    // owner-checked release, or when a fiber outage cancels the booking
    // (the client is answered immediately, never left stranded).
    holds: Vec<Hold>,
    trace: Option<SessionTrace>,
}

impl SlotEngine {
    /// Builds the engine. Fails on a zero-fiber config or if `n`/`k` do not
    /// fit the wire protocol's `u32` fields.
    pub fn new(config: EngineConfig) -> Result<SlotEngine, Error> {
        let k = config.conversion.k();
        if u32::try_from(config.n).is_err() || u32::try_from(k).is_err() {
            return Err(Error::LengthMismatch {
                expected: u32::MAX as usize,
                actual: config.n.max(k),
            });
        }
        let engine = Interconnect::new(
            InterconnectConfig::packet_switch(config.n, config.conversion)
                .with_policy(config.policy)
                .with_reservation_horizon(config.reservation_horizon)
                .with_preemption(config.preemption),
        )?;
        let trace = config.record_trace.then(|| {
            let (e, f) = (config.conversion.e(), config.conversion.f());
            let mut tc = if config.conversion.is_full() {
                let mut full = TraceConfig::circular(config.n, k, e, f, config.policy);
                full.kind = "full".to_owned();
                full
            } else {
                match config.conversion.kind() {
                    ConversionKind::Circular => {
                        TraceConfig::circular(config.n, k, e, f, config.policy)
                    }
                    ConversionKind::NonCircular => {
                        TraceConfig::non_circular(config.n, k, e, f, config.policy)
                    }
                }
            };
            tc.reservation_horizon = config.reservation_horizon;
            tc.preemption = match config.preemption {
                PreemptionPolicy::ReservedFirst => "reserved_first".to_owned(),
                PreemptionPolicy::Compete => "compete".to_owned(),
            };
            SessionTrace::new(tc)
        });
        Ok(SlotEngine {
            engine,
            policy: config.policy,
            queues: ShardQueues::new(config.n, config.queue_capacity),
            batch: Vec::new(),
            tags: Vec::new(),
            result: SlotResult::default(),
            admitted: Vec::new(),
            first_on_channel: vec![NO_ENTRY; config.n * k],
            holds: Vec::new(),
            trace,
        })
    }

    /// Number of fibers per side.
    pub fn n(&self) -> usize {
        self.engine.n()
    }

    /// Wavelengths per fiber.
    pub fn k(&self) -> usize {
        self.engine.k()
    }

    /// The scheduling policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The next slot to run (slots completed so far).
    pub fn slot(&self) -> u64 {
        self.engine.slot()
    }

    /// Requests waiting in the shard queues.
    pub fn pending(&self) -> usize {
        self.queues.pending()
    }

    /// In-flight multi-slot connections.
    pub fn active_connections(&self) -> usize {
        self.engine.active_connections()
    }

    /// Admitted-but-not-yet-activated reservations.
    pub fn pending_reservations(&self) -> usize {
        self.holds.len()
    }

    /// Warm-start scheduling counters summed over every fiber scheduler
    /// since startup (or the last [`Interconnect::reset_warm`] downstream).
    pub fn warm_stats(&self) -> wdm_core::WarmStats {
        self.engine.warm_stats()
    }

    /// True when running a slot would be a semantic no-op: nothing queued,
    /// nothing in flight to age, and no reservation waiting for its start
    /// slot. Free-running servers skip these slots (skipping is sound
    /// precisely because the engine state is untouched).
    pub fn is_idle(&self) -> bool {
        self.engine.active_connections() == 0
            && self.queues.is_empty()
            && self.engine.reservations().is_empty()
    }

    /// The recorded session so far, if recording is on.
    pub fn trace(&self) -> Option<&SessionTrace> {
        self.trace.as_ref()
    }

    /// Takes the recorded session, leaving recording off.
    pub fn take_trace(&mut self) -> Option<SessionTrace> {
        self.trace.take()
    }

    /// Admits one request into its destination shard's bounded queue.
    /// Returns an immediate deny [`Reply`] when the request is invalid for
    /// this interconnect or the shard queue is full; `None` means queued —
    /// the verdict arrives from the next [`Self::run_slot`].
    #[hot_path]
    pub fn submit(&mut self, conn: u64, req: SubmitRequest) -> Option<Reply> {
        let slot = self.engine.slot();
        let deny = |reason, retry| {
            Some(Reply {
                conn,
                id: req.id,
                slot,
                verdict: Verdict::Denied { reason, retry_after_slots: retry },
            })
        };
        let (n, k) = (self.engine.n(), self.engine.k());
        let (src_fiber, src_wavelength, dst_fiber) =
            (req.src_fiber as usize, req.src_wavelength as usize, req.dst_fiber as usize);
        if src_fiber >= n || dst_fiber >= n || src_wavelength >= k || req.duration == 0 {
            return deny(DenyReason::InvalidRequest, 0);
        }
        let tagged = Tagged {
            conn,
            id: req.id,
            request: ConnectionRequest {
                src_fiber,
                src_wavelength,
                dst_fiber,
                duration: req.duration,
            },
        };
        match self.queues.try_admit(dst_fiber, tagged) {
            Ok(()) => None,
            Err(AdmitRejection::InvalidShard(_)) => deny(DenyReason::InvalidRequest, 0),
            // Queues drain fully every slot, so "one slot" is exact.
            Err(AdmitRejection::Full(_)) => deny(DenyReason::QueueFull, 1),
        }
    }

    /// Admits an advance reservation, answering immediately: `Reserved`
    /// carries the ledger id and absolute start slot; a denial carries the
    /// typed reason (capacity, horizon, or invalid fields). Unlike cell
    /// submission there is no queueing — the capacity ledger decides now.
    pub fn reserve(&mut self, conn: u64, req: ReserveRequest) -> Reply {
        let slot = self.engine.slot();
        let deny = |reason| Reply {
            conn,
            id: req.id,
            slot,
            verdict: Verdict::Denied { reason, retry_after_slots: 0 },
        };
        let (n, k) = (self.engine.n(), self.engine.k());
        let (src_fiber, src_wavelength, dst_fiber) =
            (req.src_fiber as usize, req.src_wavelength as usize, req.dst_fiber as usize);
        if src_fiber >= n || dst_fiber >= n || src_wavelength >= k || req.duration == 0 {
            return deny(DenyReason::InvalidRequest);
        }
        let start_slot = slot.saturating_add(u64::from(req.start_in));
        let request = ReservationRequest {
            src_fiber,
            src_wavelength,
            dst_fiber,
            start_slot,
            duration: req.duration,
        };
        match self.engine.reserve(request) {
            Ok(rid) => {
                self.holds.push(Hold { rid, conn, id: req.id, dst_fiber });
                if let Some(trace) = &mut self.trace {
                    trace.record_reservation(Reservation { id: rid, request });
                }
                Reply {
                    conn,
                    id: req.id,
                    slot,
                    verdict: Verdict::Reserved { reservation: rid, start_slot },
                }
            }
            Err(Error::ReservationHorizonExceeded { .. }) => deny(DenyReason::HorizonExceeded),
            Err(Error::ReservationCapacityExhausted { .. }) => deny(DenyReason::CapacityExhausted),
            Err(_) => deny(DenyReason::InvalidRequest),
        }
    }

    /// Cancels a pending reservation, owner-checked: only the connection
    /// that made the reservation may release it. Returns `false` (a silent
    /// no-op on the wire) for unknown ids, foreign owners, or reservations
    /// that already activated.
    pub fn release(&mut self, conn: u64, reservation_id: u64) -> bool {
        let Some(pos) = self.holds.iter().position(|h| h.rid == reservation_id && h.conn == conn)
        else {
            return false;
        };
        let cancelled = self.engine.cancel_reservation(reservation_id);
        debug_assert!(cancelled, "a registered hold is always pending in the store");
        self.holds.swap_remove(pos);
        if let Some(trace) = &mut self.trace {
            trace.record_release(reservation_id);
        }
        true
    }

    /// Runs one slot: drains every shard queue (fiber order, FIFO within a
    /// fiber), schedules the batch through the offline engine, and appends
    /// one [`Reply`] per drained request to `out` — grants first in
    /// per-slot sequence order (activated reservations lead the stream),
    /// then denies in engine rejection order, then reservation expiries.
    /// Each verdict maps back to its batch entry in O(1) (see the module
    /// docs).
    #[hot_path]
    #[panic_free]
    pub fn run_slot(&mut self, out: &mut Vec<Reply>) -> SlotSummary {
        let slot = self.engine.slot();
        let k = self.engine.k();
        self.batch.clear();
        self.tags.clear();
        self.queues.drain_into(|t| {
            if let Some(first) = self.first_on_channel.get_mut(input_channel(&t.request, k)) {
                if *first == NO_ENTRY {
                    *first = self.batch.len();
                }
            }
            self.batch.push(t.request);
            self.tags.push((t.conn, t.id));
        });
        expect_invariant(
            self.engine.advance_slot_into(&self.batch, &mut self.result),
            "submit() validated every queued request",
        );
        self.admitted.clear();
        self.admitted.resize(self.batch.len(), false);
        // Activated reservations lead the grant stream: under the default
        // ReservedFirst preemption they were scheduled first, and keeping
        // one fixed stream order makes replays deterministic either way.
        let mut reservation_grants = 0usize;
        for g in &self.result.reservation_grants {
            let (conn, id) = claim_hold(&mut self.holds, g.reservation);
            let output_wavelength = expect_invariant(
                u32::try_from(g.grant.output_wavelength),
                "k fits in u32 (checked at construction)",
            );
            out.push(Reply {
                conn,
                id,
                slot,
                verdict: Verdict::Granted { seq: reservation_grants as u64, output_wavelength },
            });
            reservation_grants += 1;
        }
        let mut grants = 0usize;
        for (seq, g) in self.result.grants.iter().enumerate() {
            let (conn, id) = expect_invariant(
                admitted_entry(&self.first_on_channel, &mut self.admitted, &g.request, k)
                    .and_then(|j| tag_of(&self.batch, &self.tags, j, &g.request))
                    .ok_or(()),
                "a grant answers the admitted first entry on its input channel",
            );
            let output_wavelength = expect_invariant(
                u32::try_from(g.output_wavelength),
                "k fits in u32 (checked at construction)",
            );
            out.push(Reply {
                conn,
                id,
                slot,
                verdict: Verdict::Granted {
                    seq: (reservation_grants + seq) as u64,
                    output_wavelength,
                },
            });
            grants += 1;
        }
        // Contention losers were admitted too; mark them before the
        // source-busy cursor walks the batch.
        for r in &self.result.rejections {
            if r.reason == RejectReason::OutputContention {
                let _entry =
                    admitted_entry(&self.first_on_channel, &mut self.admitted, &r.request, k);
            }
        }
        let mut cursor = 0usize;
        let mut denies = 0usize;
        for r in &self.result.rejections {
            let (entry, reason) = match r.reason {
                RejectReason::SourceBusy => {
                    (next_not_admitted(&self.admitted, &mut cursor), DenyReason::SourceBusy)
                }
                RejectReason::OutputContention => (
                    admitted_entry(&self.first_on_channel, &mut self.admitted, &r.request, k),
                    DenyReason::OutputContention,
                ),
            };
            let (conn, id) = expect_invariant(
                entry.and_then(|j| tag_of(&self.batch, &self.tags, j, &r.request)).ok_or(()),
                "every rejection answers one batch entry",
            );
            out.push(Reply {
                conn,
                id,
                slot,
                verdict: Verdict::Denied { reason, retry_after_slots: 1 },
            });
            denies += 1;
        }
        for r in &self.batch {
            if let Some(first) = self.first_on_channel.get_mut(input_channel(r, k)) {
                *first = NO_ENTRY;
            }
        }
        // Reservations that reached their start slot but could not
        // activate expire terminally — the ledger never retries them.
        let mut reservation_expiries = 0usize;
        for x in &self.result.reservation_expired {
            let (conn, id) = claim_hold(&mut self.holds, x.reservation);
            let reason = match x.rejection.reason {
                RejectReason::SourceBusy => DenyReason::SourceBusy,
                RejectReason::OutputContention => DenyReason::OutputContention,
            };
            out.push(Reply {
                conn,
                id,
                slot,
                verdict: Verdict::Denied { reason, retry_after_slots: 0 },
            });
            reservation_expiries += 1;
        }
        if let Some(trace) = &mut self.trace {
            trace.record_slot_full(
                &self.batch,
                &self.result.grants,
                &self.result.reservation_grants,
            );
        }
        SlotSummary {
            slot,
            admitted: self.batch.len(),
            grants,
            denies,
            completed: self.result.completed,
            reservation_grants,
            reservation_expiries,
        }
    }

    /// Applies one scenario disruption event against the live engine,
    /// before the affected slot is scheduled, through the one mapping
    /// every consumer shares ([`wdm_sim::scenario::apply_disruption`]).
    ///
    /// An outage also cancels every pending reservation booked toward the
    /// dark fiber; each cancelled hold's client is answered *now* with a
    /// [`DenyReason::CapacityExhausted`] deny appended to `out` — the
    /// ledger entry is gone, and a silent cancellation would strand the
    /// client forever.
    pub fn apply_disruption(
        &mut self,
        event: &DisruptionEvent,
        out: &mut Vec<Reply>,
    ) -> Result<DisruptionImpact, Error> {
        let slot = self.engine.slot();
        let impact = apply_disruption(&mut self.engine, event)?;
        if matches!(event.change, DisruptionChange::Outage) {
            let mut cancelled = 0usize;
            let mut i = 0;
            while i < self.holds.len() {
                if self.holds[i].dst_fiber == event.fiber {
                    let hold = self.holds.swap_remove(i);
                    cancelled += 1;
                    if let Some(trace) = &mut self.trace {
                        trace.record_release(hold.rid);
                    }
                    out.push(Reply {
                        conn: hold.conn,
                        id: hold.id,
                        slot,
                        verdict: Verdict::Denied {
                            reason: DenyReason::CapacityExhausted,
                            retry_after_slots: 0,
                        },
                    });
                } else {
                    i += 1;
                }
            }
            debug_assert_eq!(
                cancelled, impact.cancelled_reservations,
                "every ledger cancellation answers exactly one registered hold"
            );
        }
        Ok(impact)
    }

    /// Attaches a compiled scenario plan to this engine, checking that the
    /// plan was compiled for this topology — every event names a fiber
    /// index and every shrunk conversion a wavelength count that must exist
    /// here. The fallback reverts to the engine's current policy.
    pub fn attach_plan(&self, plan: Arc<CompiledPlan>) -> Result<ScenarioDriver, ProtocolError> {
        if plan.n() != self.n() || plan.k() != self.k() {
            return Err(ProtocolError::Scenario {
                message: format!(
                    "plan is for n={} k={} but the engine serves n={} k={}",
                    plan.n(),
                    plan.k(),
                    self.n(),
                    self.k()
                ),
            });
        }
        Ok(ScenarioDriver::new(plan, self.policy))
    }

    /// Steps an attached plan's driver for the next slot: its due
    /// disruption events, then one fallback decision fed the clock's
    /// `lag_slots`. Call exactly once per executed slot, immediately before
    /// [`Self::run_slot`]; replies to clients whose reservations an outage
    /// cancelled are appended to `out`.
    pub fn step_plan(&mut self, driver: &mut ScenarioDriver, lag_slots: u64, out: &mut Vec<Reply>) {
        let slot = self.slot();
        if driver.before_slot(&mut EngineFabric { engine: self, out }, slot, lag_slots).is_err() {
            unreachable!(
                "attach_plan() matched the plan to this topology, and compile() validated the fallback policy against every conversion the run can reach"
            );
        }
    }

    /// Swaps the scheduling policy on every fiber — the degraded-mode
    /// fallback path (all-or-nothing, validated against every fiber's
    /// current conversion kind first; see
    /// [`Interconnect::set_policy_all`]).
    pub fn set_policy_all(&mut self, policy: Policy) -> Result<(), Error> {
        self.engine.set_policy_all(policy)?;
        self.policy = policy;
        Ok(())
    }
}

/// The engine as a scenario driver sees it: disruptions go through
/// [`SlotEngine::apply_disruption`], so outage-cancelled holds are answered
/// into `out`.
struct EngineFabric<'a> {
    engine: &'a mut SlotEngine,
    out: &'a mut Vec<Reply>,
}

impl PlanFabric for EngineFabric<'_> {
    fn disrupt(&mut self, event: &DisruptionEvent) -> Result<DisruptionImpact, Error> {
        self.engine.apply_disruption(event, self.out)
    }

    fn set_policy_all(&mut self, policy: Policy) -> Result<(), Error> {
        self.engine.set_policy_all(policy)
    }
}

/// Unwraps a result whose error leg is precluded by an engine invariant;
/// the message names the invariant. Out-of-line so each precluded panic
/// rides on this one audited suppression while `run_slot`'s own body keeps
/// its panic_free obligation.
#[allow_reach(
    panic_free,
    reason = "the error legs restate invariants validated at submit()/construction time: queued requests were admitted against the engine's dimensions and k fits in u32"
)]
fn expect_invariant<T, E>(result: Result<T, E>, invariant: &'static str) -> T {
    match result {
        Ok(v) => v,
        Err(_) => unreachable!("{invariant}"),
    }
}

/// Maps an activated reservation back to the (conn, id) tag registered at
/// admission, consuming the hold entry. Exhaustive: the engine activates
/// every registered reservation exactly once.
#[allow_reach(
    panic_free,
    reason = "the engine activates every registered reservation exactly once (ledger invariant, covered by the serve round-trip tests); a missing hold is unrecoverable state corruption"
)]
fn claim_hold(holds: &mut Vec<Hold>, reservation: u64) -> (u64, u64) {
    let Some(pos) = holds.iter().position(|h| h.rid == reservation) else {
        unreachable!("engine activated a reservation that was never registered")
    };
    let hold = holds.swap_remove(pos);
    (hold.conn, hold.id)
}

/// Marks "no batch entry on this input channel" in
/// [`SlotEngine`]'s `first_on_channel` table.
const NO_ENTRY: usize = usize::MAX;

/// The index of `request`'s input channel in the `n * k` channel table.
fn input_channel(request: &ConnectionRequest, k: usize) -> usize {
    request.src_fiber * k + request.src_wavelength
}

/// The batch entry an engine grant or contention loss answers — the first
/// entry on the request's input channel, the only one source-side admission
/// lets through — marked admitted. `None` only if the engine answered a
/// channel the batch never used.
fn admitted_entry(
    first_on_channel: &[usize],
    admitted: &mut [bool],
    request: &ConnectionRequest,
    k: usize,
) -> Option<usize> {
    let entry = *first_on_channel.get(input_channel(request, k))?;
    *admitted.get_mut(entry)? = true;
    Some(entry)
}

/// The next batch entry at or after `cursor` that the engine did not
/// admit; advances the cursor past it. Source-busy denies arrive in batch
/// order, so successive calls hand them their entries in order.
fn next_not_admitted(admitted: &[bool], cursor: &mut usize) -> Option<usize> {
    while *admitted.get(*cursor)? {
        *cursor += 1;
    }
    let entry = *cursor;
    *cursor += 1;
    Some(entry)
}

/// The (conn, id) tag of batch entry `entry`, which carries `request`.
fn tag_of(
    batch: &[ConnectionRequest],
    tags: &[(u64, u64)],
    entry: usize,
    request: &ConnectionRequest,
) -> Option<(u64, u64)> {
    debug_assert_eq!(batch.get(entry), Some(request), "verdict mapped to another request");
    tags.get(entry).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(record: bool) -> SlotEngine {
        let conversion = Conversion::symmetric_circular(6, 3).unwrap();
        let mut config = EngineConfig::new(4, conversion, Policy::Auto).with_queue_capacity(4);
        if record {
            config = config.with_trace();
        }
        SlotEngine::new(config).unwrap()
    }

    fn req(id: u64, src_fiber: u32, w: u32, dst: u32, duration: u32) -> SubmitRequest {
        SubmitRequest { id, src_fiber, src_wavelength: w, dst_fiber: dst, duration }
    }

    #[test]
    fn grant_and_deny_replies_carry_tags() {
        let mut e = engine(false);
        assert!(e.submit(1, req(10, 0, 0, 0, 1)).is_none());
        assert!(e.submit(2, req(20, 1, 0, 0, 3)).is_none());
        // Same input channel as id 10: engine denies one as SourceBusy.
        assert!(e.submit(1, req(11, 0, 0, 1, 1)).is_none());
        let mut out = Vec::new();
        let summary = e.run_slot(&mut out);
        assert_eq!(summary.admitted, 3);
        assert_eq!(summary.grants, 2);
        assert_eq!(summary.denies, 1);
        assert_eq!(out.len(), 3);
        let granted: Vec<u64> = out
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Granted { .. }))
            .map(|r| r.id)
            .collect();
        assert_eq!(granted, vec![10, 20]);
        let denied = out.iter().find(|r| matches!(r.verdict, Verdict::Denied { .. })).unwrap();
        assert_eq!(denied.id, 11);
        assert_eq!(denied.conn, 1);
        assert!(matches!(denied.verdict, Verdict::Denied { reason: DenyReason::SourceBusy, .. }));
    }

    #[test]
    fn invalid_requests_denied_at_admission() {
        let mut e = engine(false);
        for bad in [
            req(1, 4, 0, 0, 1), // src fiber out of range
            req(2, 0, 6, 0, 1), // wavelength out of range
            req(3, 0, 0, 4, 1), // dst fiber out of range
            req(4, 0, 0, 0, 0), // zero duration
        ] {
            let reply = e.submit(0, bad).unwrap();
            assert!(matches!(
                reply.verdict,
                Verdict::Denied { reason: DenyReason::InvalidRequest, retry_after_slots: 0 }
            ));
        }
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn full_queue_denies_with_retry_hint() {
        let mut e = engine(false);
        for id in 0..4 {
            assert!(e.submit(0, req(id, 0, id as u32, 2, 1)).is_none());
        }
        let reply = e.submit(0, req(9, 1, 0, 2, 1)).unwrap();
        assert!(matches!(
            reply.verdict,
            Verdict::Denied { reason: DenyReason::QueueFull, retry_after_slots: 1 }
        ));
        // Other shards are unaffected by one full queue.
        assert!(e.submit(0, req(10, 1, 0, 3, 1)).is_none());
        // The queue drains next slot, reopening admission.
        let mut out = Vec::new();
        let _ = e.run_slot(&mut out);
        assert_eq!(e.pending(), 0);
        assert!(e.submit(0, req(11, 1, 1, 2, 1)).is_none());
    }

    #[test]
    fn multi_slot_connections_hold_and_complete() {
        let mut e = engine(false);
        assert!(e.submit(0, req(1, 0, 2, 0, 3)).is_none());
        let mut out = Vec::new();
        let s = e.run_slot(&mut out);
        assert_eq!(s.grants, 1);
        assert_eq!(e.active_connections(), 1);
        out.clear();
        // The same input channel is busy while the burst holds.
        assert!(e.submit(0, req(2, 0, 2, 1, 1)).is_none());
        let s = e.run_slot(&mut out);
        assert_eq!(s.denies, 1);
        out.clear();
        let s = e.run_slot(&mut out);
        assert_eq!(s.completed, 0);
        let s = e.run_slot(&mut out);
        assert_eq!(s.completed, 1);
        assert!(e.is_idle());
    }

    #[test]
    fn recorded_trace_replays_bit_identically() {
        let mut e = engine(true);
        let mut out = Vec::new();
        for slot in 0..30u64 {
            for i in 0..8u64 {
                let h = slot * 7 + i * 3;
                let _ = e.submit(
                    i % 2,
                    req(
                        slot * 100 + i,
                        (h % 4) as u32,
                        (h % 6) as u32,
                        ((h / 5) % 4) as u32,
                        1 + (h % 3) as u32,
                    ),
                );
            }
            out.clear();
            let _ = e.run_slot(&mut out);
        }
        let trace = e.take_trace().unwrap();
        assert!(trace.grant_count() > 0);
        let report = trace.replay().unwrap();
        assert_eq!(report.slots, 30);
    }

    fn rsv(
        id: u64,
        src_fiber: u32,
        w: u32,
        dst: u32,
        start_in: u32,
        duration: u32,
    ) -> ReserveRequest {
        ReserveRequest { id, src_fiber, src_wavelength: w, dst_fiber: dst, start_in, duration }
    }

    #[test]
    fn reservation_acks_then_grants_at_start_slot() {
        let mut e = engine(false);
        let reply = e.reserve(3, rsv(40, 0, 1, 2, 2, 3));
        let Verdict::Reserved { reservation, start_slot } = reply.verdict else {
            panic!("expected Reserved, got {reply:?}")
        };
        assert_eq!(start_slot, 2);
        assert_eq!((reply.conn, reply.id), (3, 40));
        assert_eq!(e.pending_reservations(), 1);
        assert!(!e.is_idle(), "a pending reservation keeps the engine live");
        let mut out = Vec::new();
        let s0 = e.run_slot(&mut out);
        let s1 = e.run_slot(&mut out);
        assert_eq!((s0.reservation_grants, s1.reservation_grants), (0, 0));
        assert!(out.is_empty());
        let s2 = e.run_slot(&mut out);
        assert_eq!(s2.reservation_grants, 1);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].conn, out[0].id, out[0].slot), (3, 40, 2));
        assert!(matches!(out[0].verdict, Verdict::Granted { seq: 0, .. }));
        assert_eq!(e.pending_reservations(), 0);
        assert_eq!(e.active_connections(), 1);
        let _ = reservation;
    }

    #[test]
    fn released_reservation_never_activates() {
        let mut e = engine(false);
        let reply = e.reserve(3, rsv(40, 0, 1, 2, 1, 2));
        let Verdict::Reserved { reservation, .. } = reply.verdict else { panic!() };
        // Owner check: a different connection cannot release it.
        assert!(!e.release(4, reservation));
        assert!(e.release(3, reservation));
        assert!(!e.release(3, reservation), "double release is a no-op");
        assert!(e.is_idle());
        let mut out = Vec::new();
        let s = e.run_slot(&mut out);
        let s1 = e.run_slot(&mut out);
        assert_eq!(s.reservation_grants + s1.reservation_grants, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn reservation_denials_are_typed() {
        let mut e = engine(false);
        let bad = e.reserve(0, rsv(1, 9, 0, 0, 0, 1));
        assert!(matches!(bad.verdict, Verdict::Denied { reason: DenyReason::InvalidRequest, .. }));
        let far = e.reserve(0, rsv(2, 0, 0, 0, u32::MAX, 4));
        assert!(matches!(far.verdict, Verdict::Denied { reason: DenyReason::HorizonExceeded, .. }));
        // k = 6 per fiber: the seventh overlapping hold on one fiber slot
        // exhausts bookable capacity.
        for i in 0..6u32 {
            let r = e.reserve(0, rsv(10 + u64::from(i), i % 4, i, 1, 3, 2));
            assert!(matches!(r.verdict, Verdict::Reserved { .. }), "{r:?}");
        }
        let full = e.reserve(0, rsv(99, 3, 5, 1, 3, 2));
        assert!(matches!(
            full.verdict,
            Verdict::Denied { reason: DenyReason::CapacityExhausted, .. }
        ));
    }

    #[test]
    fn expired_reservation_reports_source_busy() {
        let mut e = engine(false);
        // Book input channel (0, 1) from slot 2. Cell admission is
        // best-effort and does not consult the ledger, so a later cell
        // burst can still occupy the channel under the reservation...
        let reply = e.reserve(2, rsv(50, 0, 1, 2, 2, 2));
        assert!(matches!(reply.verdict, Verdict::Reserved { .. }));
        assert!(e.submit(1, req(7, 0, 1, 3, 3)).is_none());
        let mut out = Vec::new();
        let s = e.run_slot(&mut out);
        assert_eq!(s.grants, 1);
        out.clear();
        // ...and the reservation expires at its start slot, source-busy.
        let _ = e.run_slot(&mut out);
        out.clear();
        let s = e.run_slot(&mut out);
        assert_eq!(s.reservation_expiries, 1);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].conn, out[0].id), (2, 50));
        assert!(matches!(
            out[0].verdict,
            Verdict::Denied { reason: DenyReason::SourceBusy, retry_after_slots: 0 }
        ));
        assert_eq!(e.pending_reservations(), 0);
    }

    #[test]
    fn mixed_session_trace_replays_bit_identically() {
        let conversion = Conversion::symmetric_circular(6, 3).unwrap();
        let config = EngineConfig::new(4, conversion, Policy::Auto).with_trace();
        let mut e = SlotEngine::new(config).unwrap();
        let mut out = Vec::new();
        let mut rid_pool: Vec<u64> = Vec::new();
        for slot in 0..40u64 {
            if slot % 3 == 0 {
                let r = e.reserve(
                    9,
                    rsv(
                        slot * 10,
                        (slot % 4) as u32,
                        (slot % 6) as u32,
                        ((slot / 2) % 4) as u32,
                        2 + (slot % 5) as u32,
                        1 + (slot % 3) as u32,
                    ),
                );
                if let Verdict::Reserved { reservation, .. } = r.verdict {
                    rid_pool.push(reservation);
                }
            }
            if slot % 7 == 0 {
                if let Some(rid) = rid_pool.pop() {
                    let _ = e.release(9, rid);
                }
            }
            for i in 0..4u64 {
                let h = slot * 5 + i * 3;
                let _ = e.submit(
                    i % 2,
                    req(
                        slot * 100 + i,
                        (h % 4) as u32,
                        (h % 6) as u32,
                        ((h / 3) % 4) as u32,
                        1 + (h % 2) as u32,
                    ),
                );
            }
            out.clear();
            let _ = e.run_slot(&mut out);
        }
        let trace = e.take_trace().unwrap();
        assert!(trace.slots.iter().any(|s| !s.reservation_grants.is_empty()));
        let report = trace.replay().unwrap();
        assert_eq!(report.slots, 40);
        assert!(report.reservation_grants > 0);
    }

    #[test]
    fn reply_slot_and_seq_are_dense() {
        let mut e = engine(false);
        let mut out = Vec::new();
        for id in 0..3 {
            assert!(e.submit(0, req(id, id as u32, id as u32, 0, 1)).is_none());
        }
        let _ = e.run_slot(&mut out);
        let seqs: Vec<u64> = out
            .iter()
            .filter_map(|r| match r.verdict {
                Verdict::Granted { seq, .. } => Some(seq),
                Verdict::Denied { .. } | Verdict::Reserved { .. } => None,
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(out.iter().all(|r| r.slot == 0));
    }

    #[test]
    fn duplicate_requests_keep_their_own_deny_reasons() {
        // Four λ0 requests toward fiber 0 reach only three output channels
        // (circular d = 3), so one first copy loses contention; every
        // second copy finds its input channel claimed by the first.
        let conversion = Conversion::symmetric_circular(6, 3).unwrap();
        let config = EngineConfig::new(4, conversion, Policy::Auto).with_queue_capacity(8);
        let mut e = SlotEngine::new(config).unwrap();
        let mut out = Vec::new();
        for _slot in 0..2 {
            for f in 0..4u32 {
                assert!(e.submit(u64::from(f), req(u64::from(f), f, 0, 0, 1)).is_none());
                assert!(e.submit(u64::from(f), req(10 + u64::from(f), f, 0, 0, 1)).is_none());
            }
            out.clear();
            let s = e.run_slot(&mut out);
            assert_eq!((s.grants, s.denies), (3, 5));
            for r in &out {
                let Verdict::Denied { reason, .. } = r.verdict else { continue };
                let want =
                    if r.id >= 10 { DenyReason::SourceBusy } else { DenyReason::OutputContention };
                assert_eq!(reason, want, "slot {}: id {} got {reason:?}", r.slot, r.id);
            }
        }
    }

    mod reply_mapping {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{HashMap, HashSet};
        use wdm_scenario::{DisruptionChange, DisruptionEvent};

        const N: u32 = 4;
        const K: u32 = 6;
        /// The connection reservations arrive on; cells use their source
        /// fiber as the connection.
        const RESV_CONN: u64 = 100;

        #[derive(Debug, Clone)]
        struct SlotEvents {
            /// (src_fiber, src_wavelength, dst_fiber, duration).
            cells: Vec<(u32, u32, u32, u32)>,
            /// Cells (indexes mod len) submitted a second time, unchanged.
            duplicates: Vec<usize>,
            /// (src_fiber, src_wavelength, dst_fiber, lead, duration).
            reservations: Vec<(u32, u32, u32, u32, u32)>,
        }

        #[derive(Debug, Clone)]
        struct Case {
            compete: bool,
            /// (slot, fiber) of a fiber outage, when present.
            outage: Option<(usize, usize)>,
            slots: Vec<SlotEvents>,
        }

        fn case() -> impl Strategy<Value = Case> {
            let cells = proptest::collection::vec((0..N, 0..K, 0..N, 1u32..4), 0..12);
            let duplicates = proptest::collection::vec(0usize..12, 0..5);
            let reservations =
                proptest::collection::vec((0..N, 0..K, 0..N, 0u32..4, 1u32..4), 0..3);
            let slot =
                (cells, duplicates, reservations).prop_map(|(cells, duplicates, reservations)| {
                    SlotEvents { cells, duplicates, reservations }
                });
            (
                proptest::bool::ANY,
                proptest::bool::ANY,
                (0usize..10, 0..N as usize),
                proptest::collection::vec(slot, 1..10),
            )
                .prop_map(|(compete, with_outage, outage, slots)| Case {
                    compete,
                    outage: with_outage.then_some(outage),
                    slots,
                })
        }

        /// Checks one slot's replies against the engine result they were
        /// mapped from: grants carry the granted request, and the
        /// source-busy denies are exactly the entries admission turned
        /// away (all but the first entry on a channel, and every entry on
        /// a channel nothing was admitted on).
        fn check_slot(
            e: &SlotEngine,
            replies: &[Reply],
            cells: &HashMap<(u64, u64), ConnectionRequest>,
        ) {
            let channel = |r: &ConnectionRequest| r.src_fiber * e.k() + r.src_wavelength;
            let leading = e.result.reservation_grants.len();
            for (i, g) in e.result.grants.iter().enumerate() {
                let reply = replies[leading + i];
                assert!(matches!(reply.verdict, Verdict::Granted { .. }), "{reply:?}");
                assert_eq!(cells[&(reply.conn, reply.id)], g.request, "grant tag vs request");
            }
            let admitted_channels: HashSet<usize> = e
                .result
                .grants
                .iter()
                .map(|g| channel(&g.request))
                .chain(
                    e.result
                        .rejections
                        .iter()
                        .filter(|r| r.reason == RejectReason::OutputContention)
                        .map(|r| channel(&r.request)),
                )
                .collect();
            let mut seen = HashSet::new();
            let (mut want_admitted, mut want_busy) = (HashSet::new(), HashSet::new());
            for (request, tag) in e.batch.iter().zip(&e.tags) {
                let first = seen.insert(channel(request));
                if first && admitted_channels.contains(&channel(request)) {
                    want_admitted.insert(*tag);
                } else {
                    want_busy.insert(*tag);
                }
            }
            let cell_replies = replies.iter().filter(|r| cells.contains_key(&(r.conn, r.id)));
            let (mut got_admitted, mut got_busy) = (HashSet::new(), HashSet::new());
            for r in cell_replies {
                match r.verdict {
                    Verdict::Denied { reason: DenyReason::SourceBusy, .. } => {
                        got_busy.insert((r.conn, r.id))
                    }
                    _ => got_admitted.insert((r.conn, r.id)),
                };
            }
            assert_eq!(got_busy, want_busy, "source-busy denies go to unadmitted entries");
            assert_eq!(got_admitted, want_admitted, "admitted entries get grant/contention");
        }

        fn run_case(case: &Case) {
            let conversion = Conversion::symmetric_circular(K as usize, 3).unwrap();
            let preemption = if case.compete {
                PreemptionPolicy::Compete
            } else {
                PreemptionPolicy::ReservedFirst
            };
            let config = EngineConfig::new(N as usize, conversion, Policy::Auto)
                .with_queue_capacity(64)
                .with_preemption(preemption);
            let mut e = SlotEngine::new(config).unwrap();
            let mut cells: HashMap<(u64, u64), ConnectionRequest> = HashMap::new();
            let mut holds: HashSet<(u64, u64)> = HashSet::new();
            let mut answers: HashMap<(u64, u64), usize> = HashMap::new();
            let mut next_id = 0u64;
            let mut out = Vec::new();
            let quiet =
                SlotEvents { cells: Vec::new(), duplicates: Vec::new(), reservations: Vec::new() };
            // Trailing quiet slots let every reservation reach its start.
            let slots = case.slots.iter().chain(std::iter::repeat_n(&quiet, 6));
            for (slot, events) in slots.enumerate() {
                for &(src, w, dst, lead, duration) in &events.reservations {
                    next_id += 1;
                    let request = ReserveRequest {
                        id: next_id,
                        src_fiber: src,
                        src_wavelength: w,
                        dst_fiber: dst,
                        start_in: lead,
                        duration,
                    };
                    if let Verdict::Reserved { .. } = e.reserve(RESV_CONN, request).verdict {
                        holds.insert((RESV_CONN, next_id));
                    }
                }
                let copies = events
                    .duplicates
                    .iter()
                    .filter_map(|&i| events.cells.get(i % events.cells.len().max(1)));
                for &(src, w, dst, duration) in events.cells.iter().chain(copies) {
                    next_id += 1;
                    let conn = u64::from(src);
                    assert!(e.submit(conn, req(next_id, src, w, dst, duration)).is_none());
                    let request = ConnectionRequest {
                        src_fiber: src as usize,
                        src_wavelength: w as usize,
                        dst_fiber: dst as usize,
                        duration,
                    };
                    cells.insert((conn, next_id), request);
                }
                out.clear();
                if case.outage.is_some_and(|(at, _)| at == slot) {
                    let fiber = case.outage.map_or(0, |(_, f)| f);
                    let event =
                        DisruptionEvent { slot: e.slot(), fiber, change: DisruptionChange::Outage };
                    let _impact = e.apply_disruption(&event, &mut out).unwrap();
                }
                let cancelled = out.len();
                let _summary = e.run_slot(&mut out);
                check_slot(&e, &out[cancelled..], &cells);
                for r in &out {
                    let key = (r.conn, r.id);
                    assert!(cells.contains_key(&key) || holds.contains(&key), "stray {r:?}");
                    *answers.entry(key).or_default() += 1;
                }
            }
            assert_eq!(e.pending_reservations(), 0, "every reservation reached its start");
            for key in cells.keys().chain(&holds) {
                assert_eq!(answers.get(key), Some(&1), "{key:?} answered exactly once");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn every_reply_maps_to_its_own_batch_entry(case in case()) {
                run_case(&case);
            }
        }
    }
}
