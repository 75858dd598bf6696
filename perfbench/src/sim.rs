//! The offline workloads: the simulator's slot loop over N=8, k=64,
//! circular d=7, BFA, single-threaded, timed call by call from outside.
//!
//! * `sim-packet` — Bernoulli-uniform single-slot packets at load 0.8.
//! * `sim-coherent` — `CoherentStreams` at load 0.8, mean hold 64.
//!
//! Each pass rebuilds the interconnect and the traffic model from the seed
//! and runs the same slots, so every pass must grant exactly the same
//! requests. The traced passes replay each slot through the shadows.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wdm_interconnect::{ConnectionRequest, Interconnect, InterconnectConfig, SlotResult};
use wdm_serve::SubmitRequest;
use wdm_sim::traffic::CoherentStreams;
use wdm_sim::{BernoulliUniform, DurationModel, Simulation, SimulationConfig, TrafficModel};

use crate::gen::{stream_seed, K, N};
use crate::shadow::{conversion, timed_advance, Recorder, Round, Shadows, POLICY};
use crate::stats::{Accounting, Latencies};
use crate::{dps_medians, drive_passes, ratio, Pass, Run};

/// Which offline workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Bernoulli-uniform packets.
    Packet,
    /// Coherent streams.
    Coherent,
}

/// Slots run before measuring (part of set-up): enough for the warm
/// matching to exist and for coherent streams to reach their load.
const WARMUP_SLOTS: u64 = 256;
/// Measured slots per pass.
const SLOTS_PER_PASS: u64 = 8_000;
/// Slots of the shadow-checked pass that ends an untraced run.
const CHECK_SLOTS: u64 = 1_024;
/// Per-channel load of both workloads.
const LOAD: f64 = 0.8;
/// Mean stream length of sim-coherent, in slots.
const MEAN_HOLD: f64 = 64.0;
const SALT: u64 = 0x51_0000;
/// Span records kept for the whole run.
const SPAN_RECORDS: usize = 200_000;

fn config() -> Result<InterconnectConfig, String> {
    Ok(InterconnectConfig::packet_switch(N, conversion()?).with_policy(POLICY).with_threads(1))
}

/// The traced passes' spans and counters.
struct Traced {
    rec: Recorder,
    /// Time inside the live `slot` spans.
    live_ns: u64,
    answered: u64,
}

/// Runs one offline workload for `seconds` of measured passes.
pub fn run(kind: SimKind, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let seed = stream_seed(seed, SALT);
    let mut run = Run::default();
    let mut traced =
        Traced { rec: Recorder::new(Instant::now(), SPAN_RECORDS), live_ns: 0, answered: 0 };
    let run_pass = |slots, traced: Option<&mut Traced>| match kind {
        SimKind::Packet => pass(packets, seed, slots, traced),
        SimKind::Coherent => pass(streams, seed, slots, traced),
    };
    let passes = drive_passes(seconds, trace, |is_traced| {
        run_pass(SLOTS_PER_PASS, is_traced.then_some(&mut traced))
    })?;
    run.peak_rss_mib = crate::peak_rss_mib()?;
    if !trace {
        // The untraced run still checks the schedules: one short pass
        // through the shadows, outside the measured passes.
        let mut check = Traced { rec: Recorder::new(Instant::now(), 0), live_ns: 0, answered: 0 };
        run_pass(CHECK_SLOTS, Some(&mut check))?;
        run.report.push(format!(
            "checked pass: {} slots through the shadows, {} per-fiber matchings certified",
            check.rec.totals.slots, check.rec.totals.core_certified
        ));
    }

    let grants: Vec<u64> = passes.iter().map(|p| p.acct.grants).collect();
    if grants.windows(2).any(|w| w[0] != w[1]) {
        run.errors.push(format!("grant counts differ across identical passes: {grants:?}"));
    }
    // The benchmark's loop must reproduce the library's own simulation.
    let sim = SimulationConfig { warmup_slots: WARMUP_SLOTS, measure_slots: SLOTS_PER_PASS, seed };
    let report = match kind {
        SimKind::Packet => Simulation::new(config()?, packets(), sim).and_then(Simulation::run),
        SimKind::Coherent => Simulation::new(config()?, streams(), sim).and_then(Simulation::run),
    }
    .map_err(|e| format!("Simulation::run: {e}"))?;
    let first = &passes[0].acct;
    if report.metrics.granted() != first.grants || report.metrics.offered() != first.sent {
        run.errors.push(format!(
            "Simulation::run granted {} of {} offered; the benchmark loop {} of {}",
            report.metrics.granted(),
            report.metrics.offered(),
            first.grants,
            first.sent
        ));
    } else {
        run.report.push(format!(
            "Simulation::run reproduces a pass: {} grants of {} requests",
            first.grants, first.sent
        ));
    }

    if trace {
        let Traced { rec: Recorder { spans, totals }, live_ns, answered } = traced;
        let per_slot = |name| ratio(spans.totals(name).total_ns, totals.slots);
        let mut layers = totals.layers(&spans);
        // The benchmark's generator is the traffic model itself.
        layers.set("gen.ns_per_batch", per_slot("traffic.generate"));
        // The live slot against its two layer calls; the remainder is the
        // benchmark loop's own bookkeeping between them. A traced pass's
        // wall time also holds the shadow replay, so the traced rate is
        // taken over the live slot spans only.
        let slot_ns = per_slot("slot");
        let share = |ns: f64| if slot_ns > 0.0 { ns / slot_ns } else { 0.0 };
        let covered =
            share(per_slot("traffic.generate") + per_slot("interconnect.advance_slot_into"));
        let dps_traced = ratio(answered, live_ns) * 1e9;
        let (_, dps_untraced) = dps_medians(&passes);
        layers.set("reconcile.covered_share", covered);
        layers.set("reconcile.unattributed_share", 1.0 - covered);
        layers.set(
            "reconcile.tracing_overhead",
            if dps_traced > 0.0 { dps_untraced / dps_traced } else { 0.0 },
        );
        layers.set("split.core_share", share(totals.core_ns_per_slot(&spans)));
        layers.set("split.engine_share", share(totals.engine_ns_per_slot(&spans)));
        run.layers = layers;
        run.report.push(format!(
            "traced slots {}: {} per-fiber matchings certified with schedule_slot_checked",
            totals.slots, totals.core_certified
        ));
        run.spans = Some(spans);
    }
    run.passes = passes;
    Ok(run)
}

fn packets() -> BernoulliUniform {
    BernoulliUniform::new(N, K, LOAD, DurationModel::Deterministic(1))
}

fn streams() -> CoherentStreams {
    CoherentStreams::new(N, K, LOAD, MEAN_HOLD)
}

fn pass<T: TrafficModel>(
    make: impl Fn() -> T,
    seed: u64,
    slots: u64,
    mut traced: Option<&mut Traced>,
) -> Result<Pass, String> {
    let is_traced = traced.is_some();
    let setup = Instant::now();
    let mut ic = Interconnect::new(config()?).map_err(|e| e.to_string())?;
    let mut traffic = make();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut requests: Vec<ConnectionRequest> = Vec::with_capacity(N * K);
    let mut result = SlotResult::default();
    let mut batch: Vec<SubmitRequest> = Vec::with_capacity(N * K);
    let mut shadows = if is_traced { Some(Shadows::new()?) } else { None };
    // The shadows see the warm-up slots too, so their warm state matches
    // the interconnect's; those replays are counted and timed nowhere.
    let mut scratch = Recorder::new(setup, 0);
    for slot in 0..WARMUP_SLOTS {
        traffic.generate_into(&mut rng, slot, &mut requests);
        ic.advance_slot_into(&requests, &mut result).map_err(|e| e.to_string())?;
        if let Some(sh) = shadows.as_mut() {
            replay(sh, slot, &requests, &result, &ic, &mut batch, &mut scratch)?;
        }
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let warm_before = ic.warm_stats();
    let mut lat = Latencies::with_capacity(slots as usize);
    let mut acct = Accounting::default();
    let start = Instant::now();
    for slot in WARMUP_SLOTS..WARMUP_SLOTS + slots {
        let advance_ns = match (traced.as_deref_mut(), shadows.as_mut()) {
            (Some(tr), Some(sh)) => {
                tr.rec.spans.enter("slot", slot);
                tr.rec.spans.span("traffic.generate", slot, || {
                    traffic.generate_into(&mut rng, slot, &mut requests);
                });
                // Allocations are counted over the second half of the
                // pass, once the interconnect's per-slot buffers have grown.
                let count_allocs = slot >= WARMUP_SLOTS + slots / 2;
                let advanced =
                    timed_advance(&mut ic, &requests, &mut result, slot, count_allocs, &mut tr.rec);
                tr.live_ns += tr.rec.spans.exit();
                let ns = advanced?;
                replay(sh, slot, &requests, &result, &ic, &mut batch, &mut tr.rec)?;
                ns
            }
            _ => {
                traffic.generate_into(&mut rng, slot, &mut requests);
                let t = Instant::now();
                let advanced = ic.advance_slot_into(&requests, &mut result);
                let ns = t.elapsed().as_nanos() as u64;
                advanced.map_err(|e| e.to_string())?;
                ns
            }
        };
        let answered = (result.grants.len() + result.rejections.len()) as u64;
        lat.push(advance_ns, answered as u32);
        acct.sent += requests.len() as u64;
        acct.answered += answered;
        acct.grants += result.grants.len() as u64;
    }
    let measured_s = start.elapsed().as_secs_f64();
    // Every offered packet is granted or rejected in its own slot.
    acct.broken += acct.sent.saturating_sub(acct.answered);

    if let Some(tr) = traced {
        tr.rec.totals.add_warm(warm_before, ic.warm_stats());
        tr.answered += acct.answered;
    }
    let latency = lat.summarize().ok_or("no slots")?;
    Ok(Pass {
        setup_s,
        measured_s,
        acct,
        cell_answered: acct.answered,
        latency,
        traced: is_traced,
        steal: 0.0,
    })
}

/// Replays one live slot through the shadows; the engine must grant as
/// many requests as the interconnect did.
fn replay(
    sh: &mut Shadows,
    slot: u64,
    requests: &[ConnectionRequest],
    result: &SlotResult,
    ic: &Interconnect,
    batch: &mut Vec<SubmitRequest>,
    rec: &mut Recorder,
) -> Result<(), String> {
    batch.clear();
    batch.extend(requests.iter().enumerate().map(|(i, r)| SubmitRequest {
        id: i as u64,
        src_fiber: r.src_fiber as u32,
        src_wavelength: r.src_wavelength as u32,
        dst_fiber: r.dst_fiber as u32,
        duration: r.duration,
    }));
    let round = Round { conn: 0, batch, reserve: None, release: None };
    let grants = sh.replay(slot, requests, result, ic, round, rec)?;
    if grants != result.grants.len() as u64 {
        return Err(format!(
            "slot {slot}: the shadow engine granted {grants}, the interconnect {}",
            result.grants.len()
        ));
    }
    Ok(())
}
