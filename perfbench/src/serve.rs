//! The daemon workloads: an in-process `wdm_serve::Server` on loopback with
//! a free-running slot clock, driven closed-loop through `wdm_serve::Client`.
//!
//! * `serve-closed` — one client sending load-0.5 packet batches.
//! * `serve-pair` — a probe client (1–4 single-slot requests per round)
//!   beside a bulk client (load 0.5, geometric holds of mean 4, a RESERVE
//!   with lead 4 in about a quarter of its rounds, occasional RELEASEs), on
//!   two threads and two connections.
//!
//! Every verdict is timed from just before the `Client::submit` call to the
//! `Client::next_frame` return that delivered it. The traced run logs each
//! round's batch and replays the log offline after the pass through the
//! protocol codec, a TCP-free `SlotEngine`, an `Interconnect` and per-fiber
//! schedulers, so the shadow work never delays the live session.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use wdm_core::WarmStats;
use wdm_interconnect::{ConnectionRequest, Interconnect, InterconnectConfig, SlotResult};
use wdm_serve::{
    Client, EngineConfig, Frame, ProtocolError, ReserveRequest, Server, ServerConfig, ServerReport,
    SubmitRequest,
};
use wdm_sim::DurationModel;

use crate::gen::{stream_seed, BatchGen, BulkExtras, BulkGen, ProbeGen, N, RESERVE_ID_BASE};
use crate::shadow::{conversion, timed_advance, Recorder, Round, Shadows, POLICY};
use crate::spans::Spans;
use crate::stats::{Accounting, Latencies};
use crate::{dps_medians, drive_passes, ratio, Layers, Pass, Run};

/// Which daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// One closed-loop client.
    Closed,
    /// Probe + bulk clients on two threads.
    Pair,
}

/// Closed-loop rounds per client before measuring (part of set-up).
const WARM_ROUNDS: u64 = 32;
/// Measured rounds of the first client (serve-closed's only client,
/// serve-pair's probe) per pass.
const ROUNDS: u64 = 600;
/// Rounds of the recorded serve-closed session replayed offline.
const REPLAY_ROUNDS: u64 = 200;
/// serve-closed per-channel load.
const CLOSED_LOAD: f64 = 0.5;
const SALT_CLOSED: u64 = 0xC105_ED00;
const SALT_PROBE: u64 = 0x9B0B_E000;
const SALT_BULK: u64 = 0xB017_0000;
/// Span records kept per client per traced pass.
const SESSION_SPANS: usize = 50_000;

struct Daemon {
    addr: String,
    handle: JoinHandle<Result<ServerReport, ProtocolError>>,
}

impl Daemon {
    fn start(record: bool) -> Result<Daemon, String> {
        let mut engine = EngineConfig::new(N, conversion()?, POLICY);
        if record {
            engine = engine.with_trace();
        }
        let config =
            ServerConfig { engine, slot_period: Duration::ZERO, max_slots: None, scenario: None };
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = thread::spawn(move || server.run());
        Ok(Daemon { addr, handle })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))
    }

    fn finish(self) -> Result<ServerReport, String> {
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// The first client's batches: serve-closed packets or serve-pair probes.
enum FrontGen {
    Closed(BatchGen),
    Probe(ProbeGen),
}

impl FrontGen {
    fn next(&mut self, out: &mut Vec<SubmitRequest>, spans: Option<&mut Spans>) {
        match self {
            FrontGen::Closed(g) => g.next_batch(out, spans),
            FrontGen::Probe(g) => g.next_batch(out),
        }
    }
}

/// One advance reservation as the bulk client sees it.
#[derive(Debug, Clone, Copy)]
struct Resv {
    id: u64,
    sent: Instant,
    acked: Option<u64>,
    released: bool,
    activated: bool,
}

/// Reservation counters of one session.
#[derive(Debug, Default, Clone, Copy)]
struct ResvStats {
    sent: u64,
    acks: u64,
    admission_denies: u64,
    activation_grants: u64,
    activation_denies: u64,
    ack_ns: u64,
}

impl ResvStats {
    fn since(&self, earlier: &ResvStats) -> ResvStats {
        ResvStats {
            sent: self.sent - earlier.sent,
            acks: self.acks - earlier.acks,
            admission_denies: self.admission_denies - earlier.admission_denies,
            activation_grants: self.activation_grants - earlier.activation_grants,
            activation_denies: self.activation_denies - earlier.activation_denies,
            ack_ns: self.ack_ns - earlier.ack_ns,
        }
    }

    fn add(&mut self, o: &ResvStats) {
        self.sent += o.sent;
        self.acks += o.acks;
        self.admission_denies += o.admission_denies;
        self.activation_grants += o.activation_grants;
        self.activation_denies += o.activation_denies;
        self.ack_ns += o.ack_ns;
    }
}

/// What one round logged for the offline shadow replay.
#[derive(Debug, Clone, Copy)]
struct RoundLog {
    at_ns: u64,
    conn: u64,
    start: usize,
    len: usize,
    reserve: Option<ReserveRequest>,
    release: Option<u64>,
}

/// Summed per-round session stamps of the traced passes.
#[derive(Debug, Default, Clone, Copy)]
struct SessionTimes {
    rounds: u64,
    rt_ns: u64,
    submit_ns: u64,
    first_ns: u64,
    drain_ns: u64,
}

/// One client connection and everything it has observed.
struct Session {
    client: Client,
    conn: u64,
    acct: Accounting,
    /// Verdict latencies, for the client whose latency is reported.
    lat: Option<Latencies>,
    resv: Vec<Resv>,
    resv_stats: ResvStats,
    // The current round's cell ids are [first, first + flags.len()).
    first: u64,
    flags: Vec<bool>,
    left: usize,
    reserve_pending: bool,
    batch: Vec<SubmitRequest>,
    round: u64,
    // Traced passes only.
    spans: Option<Spans>,
    log: Vec<RoundLog>,
    logged: Vec<SubmitRequest>,
    times: SessionTimes,
    epoch: Instant,
}

impl Session {
    fn new(client: Client, conn: u64, epoch: Instant) -> Session {
        Session {
            client,
            conn,
            acct: Accounting::default(),
            lat: None,
            resv: Vec::new(),
            resv_stats: ResvStats::default(),
            first: 0,
            flags: Vec::new(),
            left: 0,
            reserve_pending: false,
            batch: Vec::with_capacity(N * 64),
            round: 0,
            spans: None,
            log: Vec::new(),
            logged: Vec::new(),
            times: SessionTimes::default(),
            epoch,
        }
    }

    fn fail<T>(&mut self, what: String) -> Result<T, String> {
        self.acct.broken += 1;
        Err(format!("conn {}: {what}", self.conn))
    }

    fn next_frame(&mut self) -> Result<Frame, String> {
        let round = self.round;
        let frame = match self.spans.as_mut() {
            Some(s) => s.span("session.next_frame", round, || self.client.next_frame()),
            None => self.client.next_frame(),
        };
        frame.map_err(|e| {
            // Everything still open in this round goes unanswered.
            self.acct.broken += self.left as u64 + 1;
            format!("conn {}: {e}", self.conn)
        })
    }

    /// Accounts one server frame read at `at`, for a round submitted at
    /// `submitted`. Returns whether it answered a cell of this round.
    fn on_frame(&mut self, frame: Frame, at: Instant, submitted: Instant) -> Result<bool, String> {
        let (id, reason) = match frame {
            Frame::Grant { id, .. } => (id, None),
            Frame::Deny { id, reason, .. } => (id, Some(reason)),
            Frame::ReserveAck { id, reservation_id, .. } => {
                let Some(r) = self.resv.iter_mut().find(|r| r.id == id && r.acked.is_none()) else {
                    return self.fail(format!("RESERVE_ACK for no pending reservation ({id})"));
                };
                r.acked = Some(reservation_id);
                self.resv_stats.acks += 1;
                self.resv_stats.ack_ns += at.duration_since(r.sent).as_nanos() as u64;
                self.reserve_pending = false;
                self.acct.answered += 1;
                return Ok(false);
            }
            Frame::SlotComplete { .. } => return Ok(false),
            other => return self.fail(format!("unexpected frame {other:?}")),
        };
        if id >= RESERVE_ID_BASE {
            let Some(i) = self.resv.iter().position(|r| r.id == id && !r.activated) else {
                return self.fail(format!("verdict for no open reservation ({id})"));
            };
            match (self.resv[i].acked, reason) {
                (None, Some(reason)) => {
                    // The admission reply: the ledger turned it away.
                    self.resv_stats.admission_denies += 1;
                    self.resv_stats.ack_ns +=
                        at.duration_since(self.resv[i].sent).as_nanos() as u64;
                    self.resv.swap_remove(i);
                    self.reserve_pending = false;
                    self.acct.deny(reason);
                }
                (None, None) => return self.fail(format!("GRANT before RESERVE_ACK ({id})")),
                (Some(_), granted) => {
                    self.resv[i].activated = true;
                    if granted.is_none() {
                        self.resv_stats.activation_grants += 1;
                    } else {
                        self.resv_stats.activation_denies += 1;
                    }
                }
            }
            return Ok(false);
        }
        let open = id.checked_sub(self.first).map(|i| i as usize).filter(|&i| i < self.flags.len());
        match open {
            Some(i) if !self.flags[i] => {
                self.flags[i] = true;
                self.left -= 1;
            }
            _ => return self.fail(format!("verdict for no open request ({id})")),
        }
        if let Some(lat) = self.lat.as_mut() {
            lat.push(at.duration_since(submitted).as_nanos() as u64, 1);
        }
        match reason {
            None => self.acct.grant(),
            Some(reason) => self.acct.deny(reason),
        }
        Ok(true)
    }

    /// One closed-loop round: optional RELEASE, the SUBMIT batch in
    /// `self.batch`, optional RESERVE, then read until every cell of the
    /// batch and the reservation's admission reply are answered.
    fn round(&mut self, extras: BulkExtras) -> Result<(), String> {
        let round = self.round;
        let mut release = None;
        if extras.release {
            // Every earlier RESERVE has had its admission reply by now.
            let latest = self.resv.iter_mut().rev().find(|r| !r.released && !r.activated);
            if let Some((r, rid)) = latest.and_then(|r| r.acked.map(|rid| (r, rid))) {
                r.released = true;
                release = Some(r.id);
                self.client.release(rid).map_err(|e| format!("release: {e}"))?;
            }
        }
        self.first = self.batch.first().map_or(0, |r| r.id);
        self.flags.clear();
        self.flags.resize(self.batch.len(), false);
        self.left = self.batch.len();
        self.acct.sent += self.batch.len() as u64;
        if self.spans.is_some() {
            self.log.push(RoundLog {
                at_ns: self.epoch.elapsed().as_nanos() as u64,
                conn: self.conn,
                start: self.logged.len(),
                len: self.batch.len(),
                reserve: extras.reserve,
                release,
            });
            self.logged.extend_from_slice(&self.batch);
        }

        let submitted = Instant::now();
        let sent = match self.spans.as_mut() {
            Some(s) => s.span("session.submit", round, || self.client.submit(&self.batch)),
            None => self.client.submit(&self.batch),
        };
        sent.map_err(|e| format!("submit: {e}"))?;
        let submit_done = Instant::now();
        if let Some(req) = extras.reserve {
            self.client.reserve(req).map_err(|e| format!("reserve: {e}"))?;
            let r = Resv {
                id: req.id,
                sent: Instant::now(),
                acked: None,
                released: false,
                activated: false,
            };
            self.resv.push(r);
            self.resv_stats.sent += 1;
            self.acct.sent += 1;
            self.reserve_pending = true;
        }
        let (mut first, mut last) = (None, submit_done);
        while self.left > 0 || self.reserve_pending {
            let frame = self.next_frame()?;
            let at = Instant::now();
            if self.on_frame(frame, at, submitted)? {
                first.get_or_insert(at);
                last = at;
            }
        }
        if self.spans.is_some() {
            let first = first.unwrap_or(submit_done);
            let t = &mut self.times;
            t.rounds += 1;
            t.rt_ns += last.duration_since(submitted).as_nanos() as u64;
            t.submit_ns += submit_done.duration_since(submitted).as_nanos() as u64;
            t.first_ns += first.duration_since(submit_done).as_nanos() as u64;
            t.drain_ns += last.duration_since(first).as_nanos() as u64;
        }
        // Activated reservations are settled; released ones stay until the
        // end, since an activation already in flight may still arrive.
        self.resv.retain(|r| !r.activated);
        self.round += 1;
        Ok(())
    }

    /// Admitted, unreleased reservations still waiting for activation.
    fn awaiting_activation(&self) -> usize {
        self.resv.iter().filter(|r| r.acked.is_some() && !r.released && !r.activated).count()
    }

    /// Reads until every admitted, unreleased reservation has activated
    /// (pending reservations keep the free-running daemon executing slots).
    fn settle(&mut self) -> Result<(), String> {
        while self.awaiting_activation() > 0 {
            let frame = self.next_frame()?;
            let now = Instant::now();
            if self.on_frame(frame, now, now)? {
                return self.fail("cell verdict with no round open".to_owned());
            }
        }
        Ok(())
    }

    /// Reads to end of stream after SHUTDOWN. Late activation verdicts of
    /// released reservations are fine; anything else is an error.
    fn drain_to_close(&mut self) -> Result<(), String> {
        loop {
            match self.client.next_frame() {
                Ok(frame) => {
                    let now = Instant::now();
                    if self.on_frame(frame, now, now)? {
                        return self.fail("cell verdict after the session".to_owned());
                    }
                }
                Err(ProtocolError::Disconnected | ProtocolError::Io(_)) => return Ok(()),
                Err(e) => return self.fail(format!("at close: {e}")),
            }
        }
    }

    /// Switches per-round logging and span recording on for a traced pass.
    fn trace(&mut self) {
        self.spans = Some(Spans::new(self.epoch, SESSION_SPANS));
    }
}

/// Checks the daemon's own report against everything the clients
/// observed over the whole session, warm-up included.
fn reconcile_report(report: &ServerReport, sessions: &[&Session]) -> Result<(), String> {
    let grants: u64 = sessions.iter().map(|s| s.acct.grants).sum();
    let invalid: u64 = sessions.iter().map(|s| s.acct.invalid).sum();
    let resv_grants: u64 = sessions.iter().map(|s| s.resv_stats.activation_grants).sum();
    let acks: u64 = sessions.iter().map(|s| s.resv_stats.acks).sum();
    if report.grants != grants {
        return Err(format!("server granted {} cells, clients saw {grants}", report.grants));
    }
    if report.reservation_grants != resv_grants {
        return Err(format!(
            "server activated {} reservations, clients saw {resv_grants}",
            report.reservation_grants
        ));
    }
    if report.reservations != acks {
        return Err(format!(
            "server admitted {} reservations, clients saw {acks}",
            report.reservations
        ));
    }
    if invalid != 0 {
        return Err(format!("{invalid} InvalidRequest denies"));
    }
    if let Some(s) = sessions.iter().find(|s| s.awaiting_activation() > 0) {
        return Err(format!("conn {}: admitted reservations never activated", s.conn));
    }
    Ok(())
}

/// The traced passes' spans and counters.
struct Traced {
    rec: Recorder,
    /// Session stamps of the first client.
    session: SessionTimes,
    /// Reservation counters of the measured rounds.
    resv: ResvStats,
}

impl Traced {
    /// Replays the logged rounds of one pass, merged in submit order, one
    /// shadow slot per SUBMIT, then takes the sessions' spans and the
    /// first session's stamps.
    fn absorb_pass(
        &mut self,
        sessions: &mut [&mut Session],
        resv: &ResvStats,
    ) -> Result<(), String> {
        let mut rounds: Vec<(RoundLog, &[SubmitRequest])> = sessions
            .iter()
            .flat_map(|s| s.log.iter().map(|r| (*r, &s.logged[r.start..r.start + r.len])))
            .collect();
        rounds.sort_by_key(|(r, _)| r.at_ns);

        let mut ic = Interconnect::new(
            InterconnectConfig::packet_switch(N, conversion()?).with_policy(POLICY).with_threads(1),
        )
        .map_err(|e| e.to_string())?;
        let mut shadows = Shadows::new()?;
        let mut cells: Vec<ConnectionRequest> = Vec::with_capacity(N * 64);
        let mut result = SlotResult::default();
        let half = rounds.len() as u64 / 2;
        for (slot, (log, batch)) in rounds.into_iter().enumerate() {
            let slot = slot as u64;
            cells.clear();
            cells.extend(batch.iter().map(|r| {
                ConnectionRequest::burst(
                    r.src_fiber as usize,
                    r.src_wavelength as usize,
                    r.dst_fiber as usize,
                    r.duration,
                )
            }));
            // Allocations are counted over the second half of the pass,
            // once the interconnect's per-slot buffers have grown.
            timed_advance(&mut ic, &cells, &mut result, slot, slot >= half, &mut self.rec)?;
            let round = Round { conn: log.conn, batch, reserve: log.reserve, release: log.release };
            shadows.replay(slot, &cells, &result, &ic, round, &mut self.rec)?;
        }
        self.rec.totals.add_warm(WarmStats::default(), ic.warm_stats());

        let t = sessions[0].times;
        let m = &mut self.session;
        m.rounds += t.rounds;
        m.rt_ns += t.rt_ns;
        m.submit_ns += t.submit_ns;
        m.first_ns += t.first_ns;
        m.drain_ns += t.drain_ns;
        self.resv.add(resv);
        for s in sessions.iter_mut() {
            if let Some(spans) = s.spans.take() {
                self.rec.spans.absorb(spans);
            }
        }
        Ok(())
    }

    fn layers(&self, dps_traced: f64, dps_untraced: f64) -> Layers {
        let Recorder { spans, totals } = &self.rec;
        let mut l = totals.layers(spans);
        let gen = spans.totals("gen.batch");
        l.set("gen.ns_per_batch", ratio(gen.total_ns, gen.count));
        let s = &self.session;
        let rt_ns = ratio(s.rt_ns, s.rounds);
        let us = |ns: f64| ns / 1_000.0;
        let share = |ns: f64| if rt_ns > 0.0 { ns / rt_ns } else { 0.0 };
        let timed_ns = totals.protocol_ns_per_slot(spans) + totals.engine_ns_per_slot(spans);
        l.set("session.submit_call_us", us(ratio(s.submit_ns, s.rounds)));
        l.set("session.first_verdict_us", us(ratio(s.first_ns, s.rounds)));
        l.set("session.drain_us", us(ratio(s.drain_ns, s.rounds)));
        l.set("session.unattributed_us", us(rt_ns - timed_ns));
        let r = &self.resv;
        l.set("reservation.ack_us", us(ratio(r.ack_ns, r.acks + r.admission_denies)));
        l.set("reservation.admit_ratio", ratio(r.acks, r.sent));
        l.set(
            "reservation.activation_ratio",
            ratio(r.activation_grants, r.activation_grants + r.activation_denies),
        );
        // The round trip against the layers the shadow replay timed (codec
        // and engine); the remainder is transport, thread hand-offs and the
        // results writer, which no span covers.
        l.set("reconcile.covered_share", share(timed_ns));
        l.set("reconcile.unattributed_share", 1.0 - share(timed_ns));
        l.set(
            "reconcile.tracing_overhead",
            if dps_traced > 0.0 { dps_untraced / dps_traced } else { 0.0 },
        );
        l.set("split.core_share", share(totals.core_ns_per_slot(spans)));
        l.set("split.engine_share", share(totals.engine_ns_per_slot(spans)));
        l
    }
}

/// Runs one serve workload for `seconds` of measured passes.
pub fn run(kind: ServeKind, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let mut run = Run::default();
    let mut traced = Traced {
        rec: Recorder::new(Instant::now(), 200_000),
        session: SessionTimes::default(),
        resv: ResvStats::default(),
    };
    let mut grants_per_pass: Vec<u64> = Vec::new();
    let passes = drive_passes(seconds, trace, |is_traced| {
        let pass = serve_pass(kind, seed, is_traced.then_some(&mut traced), &mut run.errors)?;
        grants_per_pass.push(pass.acct.grants);
        Ok(pass)
    })?;
    run.peak_rss_mib = crate::peak_rss_mib()?;
    if kind == ServeKind::Closed {
        if grants_per_pass.windows(2).any(|w| w[0] != w[1]) {
            run.errors
                .push(format!("grant counts differ across identical passes: {grants_per_pass:?}"));
        }
        match replay_check(seed) {
            Ok(line) => run.report.push(line),
            Err(e) => run.errors.push(format!("trace replay: {e}")),
        }
    }
    if trace {
        let (dps_traced, dps_untraced) = dps_medians(&passes);
        run.layers = traced.layers(dps_traced, dps_untraced);
        run.report.push(format!(
            "shadow replay: {} slots, {} requests; {} session rounds timed; {} per-fiber matchings certified",
            traced.rec.totals.slots, traced.rec.totals.requests, traced.session.rounds, traced.rec.totals.core_certified
        ));
        run.spans = Some(traced.rec.spans);
    }
    run.passes = passes;
    Ok(run)
}

/// Runs `f` inside a `gen.batch` span when the session is traced.
fn gen_span<R>(spans: &mut Option<Spans>, id: u64, f: impl FnOnce(Option<&mut Spans>) -> R) -> R {
    match spans.as_mut() {
        Some(s) => {
            s.enter("gen.batch", id);
            let r = f(Some(&mut *s));
            s.exit();
            r
        }
        None => f(None),
    }
}

/// The bulk client's loop: rounds until `done`, then waits out its
/// admitted reservations. Returns when the measured rounds ended.
fn bulk_loop(bulk: &mut Session, gen: &mut BulkGen, done: &AtomicBool) -> Result<Instant, String> {
    while !done.load(Ordering::Relaxed) {
        let round = bulk.round;
        let extras = gen_span(&mut bulk.spans, round, |s| gen.next_round(&mut bulk.batch, s));
        bulk.round(extras)?;
    }
    let end = Instant::now();
    bulk.settle()?;
    Ok(end)
}

const NO_EXTRAS: BulkExtras = BulkExtras { reserve: None, release: false };

/// One pass: daemon start, connect, warm-up (the set-up), `ROUNDS`
/// measured rounds of the first client (with the bulk client running
/// beside it on serve-pair), shutdown, and the report checks.
fn serve_pass(
    kind: ServeKind,
    seed: u64,
    traced: Option<&mut Traced>,
    errors: &mut Vec<String>,
) -> Result<Pass, String> {
    let is_traced = traced.is_some();
    let setup = Instant::now();
    let daemon = Daemon::start(false)?;
    let mut front_gen = match kind {
        ServeKind::Closed => FrontGen::Closed(BatchGen::new(
            stream_seed(seed, SALT_CLOSED),
            CLOSED_LOAD,
            DurationModel::Deterministic(1),
        )),
        ServeKind::Pair => FrontGen::Probe(ProbeGen::new(stream_seed(seed, SALT_PROBE))),
    };
    let mut front = Session::new(daemon.connect()?, 0, setup);
    let mut bulk = match kind {
        ServeKind::Closed => None,
        ServeKind::Pair => Some((
            Session::new(daemon.connect()?, 1, setup),
            BulkGen::new(stream_seed(seed, SALT_BULK)),
        )),
    };
    for _ in 0..WARM_ROUNDS {
        front_gen.next(&mut front.batch, None);
        front.round(NO_EXTRAS)?;
        if let Some((b, g)) = bulk.as_mut() {
            let extras = g.next_round(&mut b.batch, None);
            b.round(extras)?;
        }
    }
    let setup_s = setup.elapsed().as_secs_f64();
    let front_warm = front.acct;
    let bulk_warm = bulk.as_ref().map(|(b, _)| (b.acct, b.resv_stats));
    let per_round = match kind {
        ServeKind::Closed => 320,
        ServeKind::Pair => 4,
    };
    front.lat = Some(Latencies::with_capacity(ROUNDS as usize * per_round));
    if is_traced {
        front.trace();
        if let Some((b, _)) = bulk.as_mut() {
            b.trace();
        }
    }

    let done = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let bulk_thread = bulk.map(|(mut b, mut g)| {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let end = bulk_loop(&mut b, &mut g, &done);
            (b, end)
        })
    });
    let front_end = (|| {
        for round in 0..ROUNDS {
            gen_span(&mut front.spans, round, |s| front_gen.next(&mut front.batch, s));
            front.round(NO_EXTRAS)?;
            if let FrontGen::Probe(g) = &mut front_gen {
                thread::sleep(g.think_time());
            }
        }
        Ok::<Instant, String>(Instant::now())
    })();
    done.store(true, Ordering::Relaxed);
    let bulk = match bulk_thread {
        Some(h) => Some(h.join().map_err(|_| "bulk client panicked".to_owned())?),
        None => None,
    };
    let mut end = front_end?;
    let mut bulk = match bulk {
        Some((b, bulk_end)) => {
            end = end.max(bulk_end?);
            Some(b)
        }
        None => None,
    };
    let measured_s = end.duration_since(start).as_secs_f64();

    front.client.send_shutdown().map_err(|e| format!("shutdown: {e}"))?;
    front.drain_to_close()?;
    if let Some(b) = bulk.as_mut() {
        b.drain_to_close()?;
    }
    let report = daemon.finish()?;

    let mut acct = front.acct.since(&front_warm);
    let mut resv = ResvStats::default();
    if let (Some(b), Some((warm_acct, warm_resv))) = (bulk.as_ref(), bulk_warm) {
        acct.merge(&b.acct.since(&warm_acct));
        resv = b.resv_stats.since(&warm_resv);
    }
    let mut all: Vec<&Session> = vec![&front];
    all.extend(bulk.as_ref());
    if let Err(e) = reconcile_report(&report, &all) {
        errors.push(e);
    }
    if let Some(tr) = traced {
        let mut sessions: Vec<&mut Session> = vec![&mut front];
        sessions.extend(bulk.as_mut());
        tr.absorb_pass(&mut sessions, &resv)?;
    }
    let resv_replies = resv.acks + resv.admission_denies;
    let latency = front.lat.as_mut().and_then(Latencies::summarize).ok_or("no verdicts")?;
    Ok(Pass {
        setup_s,
        measured_s,
        acct,
        cell_answered: acct.answered - resv_replies,
        latency,
        traced: is_traced,
        steal: 0.0,
    })
}

/// The serve-closed correctness gate: a recorded session replays bit for
/// bit through the offline engine.
fn replay_check(seed: u64) -> Result<String, String> {
    let daemon = Daemon::start(true)?;
    let mut gen =
        BatchGen::new(stream_seed(seed, SALT_CLOSED), CLOSED_LOAD, DurationModel::Deterministic(1));
    let mut session = Session::new(daemon.connect()?, 0, Instant::now());
    for _ in 0..REPLAY_ROUNDS {
        gen.next_batch(&mut session.batch, None);
        session.round(NO_EXTRAS)?;
    }
    session.client.send_shutdown().map_err(|e| format!("shutdown: {e}"))?;
    session.drain_to_close()?;
    let report = daemon.finish()?;
    reconcile_report(&report, &[&session])?;
    let trace = report.trace.as_ref().ok_or("the recording server returned no trace")?;
    let replayed = trace.replay().map_err(|e| format!("{e:?}"))?;
    if replayed.grants as u64 != session.acct.grants || replayed.slots as u64 != REPLAY_ROUNDS {
        return Err(format!(
            "replay covered {} slots / {} grants; the session had {REPLAY_ROUNDS} rounds / {} grants",
            replayed.slots, replayed.grants, session.acct.grants
        ));
    }
    Ok(format!(
        "trace replay: {} slots, {} grants reproduced bit for bit",
        replayed.slots, replayed.grants
    ))
}
