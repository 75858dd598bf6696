//! The daemon engine under a compiled scenario plan, TCP-free: the plan
//! attaches to a [`SlotEngine`] and is stepped through the simulator's own
//! driver, so events fire at their planned slots, the fallback tracks the
//! plan (and the live lag), outages answer every stranded hold — and the
//! engine reproduces the offline `run_scenario` study request for request.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wdm_core::{Conversion, Policy};
use wdm_scenario::{load_plan, CompiledPlan};
use wdm_serve::protocol::{DenyReason, ProtocolError, ReserveRequest, SubmitRequest};
use wdm_serve::{EngineConfig, SlotEngine, Verdict};
use wdm_sim::metrics::SlotObservation;
use wdm_sim::scenario::{run_scenario, PlanWindows, ScenarioTraffic};
use wdm_sim::traffic::TrafficModel;

const PLAN: &str = r#"
schema = 1
name = "daemon-storm"

[interconnect]
n = 4
k = 8
degree = 5
kind = "circular"
policy = "bfa"

[run]
slots = 40
seed = 9

[traffic]
load = 0.5
duration = { model = "deterministic", slots = 2 }

[[disruptions]]
at = 4
fiber = 1
kind = "converter-failure"
degree = 1
until = 8

[[disruptions]]
at = 12
fiber = 2
kind = "outage"
until = 16

[fallback]
policy = "approx"
on_disruption = true
"#;

fn plan(doc: &str) -> Arc<CompiledPlan> {
    Arc::new(load_plan(doc).unwrap())
}

fn engine_for(plan: &CompiledPlan) -> SlotEngine {
    SlotEngine::new(EngineConfig::new(plan.n(), plan.conversion(), plan.policy())).unwrap()
}

fn sub(id: u64, src_fiber: u32, sw: u32, dst_fiber: u32, duration: u32) -> SubmitRequest {
    SubmitRequest { id, src_fiber, src_wavelength: sw, dst_fiber, duration }
}

#[test]
fn topology_mismatch_is_rejected_at_attach() {
    let conversion = Conversion::symmetric_circular(8, 5).unwrap();
    let other = SlotEngine::new(EngineConfig::new(6, conversion, Policy::Auto)).unwrap();
    let err = other.attach_plan(plan(PLAN)).unwrap_err();
    assert!(matches!(err, ProtocolError::Scenario { .. }), "{err}");
}

#[test]
fn events_fire_at_their_slots_and_fallback_tracks_disruption() {
    let plan = plan(PLAN);
    let mut engine = engine_for(&plan);
    let mut driver = engine.attach_plan(Arc::clone(&plan)).unwrap();
    let mut out = Vec::new();
    for slot in 0..plan.total_slots() {
        assert_eq!(engine.slot(), slot);
        out.clear();
        engine.step_plan(&mut driver, 0, &mut out);
        // Degraded policy exactly while a disruption window is open.
        let in_window = (4..8).contains(&slot) || (12..16).contains(&slot);
        assert_eq!(driver.engaged(), in_window, "slot {slot}");
        let expected = if in_window { Policy::Approximate } else { Policy::BreakFirstAvailable };
        assert_eq!(engine.policy(), expected, "slot {slot}");
        let _ = engine.run_slot(&mut out);
    }
    let s = driver.summary();
    assert_eq!(s.events_applied, plan.events().len() as u64);
    assert_eq!(s.fallback_engagements, 2);
    assert_eq!(s.fallback_reverts, 2);
    assert_eq!(s.engaged_slots, 8);
}

#[test]
fn outage_answers_every_cancelled_hold() {
    let plan = plan(PLAN);
    let mut engine = engine_for(&plan);
    let mut driver = engine.attach_plan(Arc::clone(&plan)).unwrap();
    let mut out = Vec::new();
    // Book two reservations toward fiber 2 (the outage target) and one
    // toward fiber 3, all starting after the outage at slot 12.
    for (id, sw, dst) in [(100, 0, 2), (101, 1, 2), (102, 2, 3)] {
        let reply = engine.reserve(
            7,
            ReserveRequest {
                id,
                src_fiber: 0,
                src_wavelength: sw,
                dst_fiber: dst,
                start_in: 20,
                duration: 2,
            },
        );
        assert!(matches!(reply.verdict, Verdict::Reserved { .. }), "{reply:?}");
    }
    assert_eq!(engine.pending_reservations(), 3);
    for _ in 0..12 {
        out.clear();
        engine.step_plan(&mut driver, 0, &mut out);
        let _ = engine.run_slot(&mut out);
    }
    // Slot 12 applies the outage: both fiber-2 holds are cancelled and
    // answered before the slot's own replies.
    out.clear();
    engine.step_plan(&mut driver, 0, &mut out);
    let denies: Vec<u64> = out
        .iter()
        .filter(|r| {
            matches!(r.verdict, Verdict::Denied { reason: DenyReason::CapacityExhausted, .. })
        })
        .map(|r| r.id)
        .collect();
    assert_eq!(denies, vec![100, 101]);
    assert_eq!(engine.pending_reservations(), 1);
    assert_eq!(driver.summary().cancelled_reservations, 2);
    // While dark, cell traffic toward fiber 2 loses output contention.
    assert!(engine.submit(7, sub(1, 0, 0, 2, 1)).is_none());
    let _ = engine.run_slot(&mut out);
    let denied = out.iter().any(|r| {
        r.id == 1
            && matches!(r.verdict, Verdict::Denied { reason: DenyReason::OutputContention, .. })
    });
    assert!(denied, "requests toward a dark fiber must lose contention: {out:?}");
    // Run through the rejoin at slot 16; the surviving fiber-3 hold
    // activates at its start slot and the fiber serves traffic again.
    while engine.slot() < 22 {
        out.clear();
        engine.step_plan(&mut driver, 0, &mut out);
        let _ = engine.run_slot(&mut out);
    }
    assert_eq!(engine.pending_reservations(), 0);
    out.clear();
    assert!(engine.submit(7, sub(2, 1, 0, 2, 1)).is_none());
    engine.step_plan(&mut driver, 0, &mut out);
    let _ = engine.run_slot(&mut out);
    let granted = out.iter().any(|r| r.id == 2 && matches!(r.verdict, Verdict::Granted { .. }));
    assert!(granted, "a rejoined fiber serves traffic: {out:?}");
}

#[test]
fn lag_trigger_engages_without_a_disruption() {
    let doc = r#"
schema = 1

[interconnect]
n = 2
k = 4
degree = 3
kind = "circular"
policy = "bfa"

[run]
slots = 10
seed = 1

[traffic]
load = 0.2
duration = { model = "deterministic", slots = 1 }

[fallback]
policy = "approx"
lag_threshold = 3
"#;
    let plan = plan(doc);
    let mut engine = engine_for(&plan);
    let mut driver = engine.attach_plan(Arc::clone(&plan)).unwrap();
    let mut out = Vec::new();
    engine.step_plan(&mut driver, 0, &mut out);
    assert!(!driver.engaged());
    let _ = engine.run_slot(&mut out);
    engine.step_plan(&mut driver, 5, &mut out);
    assert!(driver.engaged(), "lag >= threshold engages");
    let _ = engine.run_slot(&mut out);
    engine.step_plan(&mut driver, 1, &mut out);
    assert!(driver.engaged(), "hysteresis: still lagging, stay engaged");
    let _ = engine.run_slot(&mut out);
    engine.step_plan(&mut driver, 0, &mut out);
    assert!(!driver.engaged(), "lag cleared, revert");
    let s = driver.summary();
    assert_eq!(s.fallback_engagements, 1);
    assert_eq!(s.fallback_reverts, 1);
    assert_eq!(s.engaged_slots, 2);
}

/// The live session reproduces the offline study request for request: the
/// engine, fed the plan's own `ScenarioTraffic` stream and stepped by the
/// shared driver, ends with the offline run's summary and fills every
/// window — phases and before/during/after — with the offline counts.
#[test]
fn engine_reproduces_the_offline_scenario_run() {
    let plan = plan(PLAN);
    let offline = run_scenario(&plan).unwrap();

    let mut engine = engine_for(&plan);
    let mut driver = engine.attach_plan(Arc::clone(&plan)).unwrap();
    let mut traffic = ScenarioTraffic::new(Arc::clone(&plan));
    let mut rng = StdRng::seed_from_u64(plan.seed());
    let mut windows = PlanWindows::for_plan(&plan);
    let (mut requests, mut out) = (Vec::new(), Vec::new());
    let mut next_id = 0u64;
    for slot in 0..plan.total_slots() {
        traffic.generate_into(&mut rng, slot, &mut requests);
        for r in &requests {
            let req = sub(
                next_id,
                r.src_fiber as u32,
                r.src_wavelength as u32,
                r.dst_fiber as u32,
                r.duration,
            );
            next_id += 1;
            assert!(engine.submit(7, req).is_none(), "every generated request queues");
        }
        out.clear();
        engine.step_plan(&mut driver, 0, &mut out);
        let _ = engine.run_slot(&mut out);
        let mut observed = SlotObservation { offered: requests.len(), ..Default::default() };
        for reply in &out {
            match reply.verdict {
                Verdict::Granted { .. } => observed.granted += 1,
                Verdict::Denied { reason: DenyReason::OutputContention, .. } => {
                    observed.contention_losses += 1;
                }
                Verdict::Denied { reason: DenyReason::SourceBusy, .. } => observed.source_busy += 1,
                other => panic!("slot {slot}: unexpected verdict {other:?}"),
            }
        }
        windows.record(&plan, slot, &observed);
    }

    let summary = driver.summary();
    assert!(summary.dropped_connections > 0, "the strike must catch in-flight holds");
    assert_eq!(summary, offline.summary);
    assert!(windows.during.offered > 0 && windows.after.offered > 0);
    assert_eq!(windows, offline.windows);
}
