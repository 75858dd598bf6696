//! End-to-end smoke: an in-process `wdm-serve` daemon on a loopback
//! ephemeral port, driven by the real load generator in both pacing modes,
//! must finish cleanly (zero denies-due-to-bug), grant work, shut down, and
//! leave a trace that replays bit-identically offline.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::Duration;

use wdm_core::{Conversion, Policy};
use wdm_loadgen::{run, LoadReport, LoadgenConfig, Mode};
use wdm_serve::{EngineConfig, Server, ServerConfig};

const N: usize = 4;
const K: usize = 16;

fn spawn_server(
    policy: Policy,
    conversion: Conversion,
) -> (
    String,
    std::thread::JoinHandle<Result<wdm_serve::server::ServerReport, wdm_serve::ProtocolError>>,
) {
    let config = ServerConfig {
        engine: EngineConfig::new(N, conversion, policy).with_trace(),
        slot_period: Duration::ZERO,
        max_slots: None,
        scenario: None,
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn closed_loop_session_is_clean_and_replayable() {
    let (addr, server) =
        spawn_server(Policy::BreakFirstAvailable, Conversion::symmetric_circular(K, 3).unwrap());
    let report = run(&LoadgenConfig {
        addr,
        mode: Mode::Closed,
        load: 0.4,
        batches: 200,
        seed: 7,
        mean_duration: 2.0,
        reserve_fraction: 0.0,
        reserve_lead: 4,
        shutdown_server: true,
        scenario: None,
    })
    .unwrap();

    assert!(report.clean(), "InvalidRequest denies: {}", report.denies_invalid);
    assert!(report.grants > 0, "a 0.4-load run must grant something");
    assert!(report.requests >= report.grants);
    assert_eq!(report.policy, "bfa");
    assert_eq!(report.n as usize, N);
    assert_eq!(report.k as usize, K);
    // Closed loop settles every request: grants + denies == requests.
    let settled = report.grants
        + report.denies_queue_full
        + report.denies_source_busy
        + report.denies_contention
        + report.denies_invalid;
    assert_eq!(settled, report.requests);

    let server_report = server.join().unwrap().unwrap();
    assert_eq!(server_report.grants, report.grants);
    let trace = server_report.trace.expect("server records");
    let replay = trace.replay().unwrap();
    assert_eq!(replay.grants, report.grants as usize);
}

#[test]
fn open_loop_session_is_clean_and_replayable() {
    let (addr, server) =
        spawn_server(Policy::FirstAvailable, Conversion::symmetric_non_circular(K, 3).unwrap());
    let report = run(&LoadgenConfig {
        addr,
        mode: Mode::Open { interval: Duration::from_micros(200) },
        load: 0.3,
        batches: 150,
        seed: 11,
        mean_duration: 1.0,
        reserve_fraction: 0.0,
        reserve_lead: 4,
        shutdown_server: true,
        scenario: None,
    })
    .unwrap();

    assert!(report.clean(), "InvalidRequest denies: {}", report.denies_invalid);
    assert!(report.grants > 0);
    assert_eq!(report.mode, "open");

    let server_report = server.join().unwrap().unwrap();
    let trace = server_report.trace.expect("server records");
    let replay = trace.replay().unwrap();
    assert_eq!(replay.grants as u64, server_report.grants);
}

#[test]
fn same_seed_same_request_stream() {
    // Two closed-loop runs with the same seed against identically configured
    // servers submit the same requests and are granted identically.
    let run_once = || {
        let (addr, server) =
            spawn_server(Policy::Approximate, Conversion::symmetric_circular(K, 3).unwrap());
        let report = run(&LoadgenConfig {
            addr,
            mode: Mode::Closed,
            load: 0.35,
            batches: 120,
            seed: 99,
            mean_duration: 1.5,
            reserve_fraction: 0.0,
            reserve_lead: 4,
            shutdown_server: true,
            scenario: None,
        })
        .unwrap();
        let server_report = server.join().unwrap().unwrap();
        (report, server_report.trace.unwrap())
    };
    let (ra, ta) = run_once();
    let (rb, tb) = run_once();
    assert_eq!(ra.requests, rb.requests);
    assert_eq!(ra.grants, rb.grants);
    assert_eq!(ta, tb, "identical seeds must record identical sessions");
}

#[test]
fn mixed_reservation_session_is_clean_and_replayable() {
    let (addr, server) =
        spawn_server(Policy::BreakFirstAvailable, Conversion::symmetric_circular(K, 3).unwrap());
    let report = run(&LoadgenConfig {
        addr,
        mode: Mode::Closed,
        load: 0.3,
        batches: 200,
        seed: 23,
        mean_duration: 2.0,
        reserve_fraction: 0.5,
        reserve_lead: 3,
        shutdown_server: true,
        scenario: None,
    })
    .unwrap();

    assert!(report.clean(), "InvalidRequest denies: {}", report.denies_invalid);
    assert!(report.reservations > 0, "a 0.5 reserve fraction over 200 batches must reserve");
    // Every RESERVE got an admission verdict...
    assert_eq!(
        report.reservations,
        report.reservation_acks + report.reserve_denied_capacity + report.reserve_denied_horizon,
    );
    // ...and every admitted hold resolved to an activation grant or expiry.
    assert_eq!(report.reservation_acks, report.reservation_grants + report.reservation_expiries);
    assert!(report.reservation_grants > 0, "some holds must activate under 0.3 load");
    let bucketed: u64 = report.reservation_latency_by_duration.iter().map(|b| b.count).sum();
    assert_eq!(bucketed, report.reservation_grants);
    assert!(
        report.reservation_latency_by_duration.iter().all(|b| b.duration >= 2),
        "reservation holds are multi-slot by construction"
    );

    let server_report = server.join().unwrap().unwrap();
    assert_eq!(server_report.reservations, report.reservation_acks);
    assert_eq!(server_report.reservation_grants, report.reservation_grants);
    assert_eq!(server_report.reservation_expiries, report.reservation_expiries);
    let trace = server_report.trace.expect("server records");
    let replay = trace.replay().unwrap();
    assert_eq!(replay.grants as u64, server_report.grants);
    assert_eq!(replay.reservation_grants as u64, report.reservation_grants);
}

/// A small storm: a converter failure over slots 4–8, an outage over
/// 12–16, and an `on_disruption` fallback.
const SMOKE_STORM: &str = r#"
schema = 1
name = "smoke-storm"

[interconnect]
n = 4
k = 16
degree = 3
kind = "circular"
policy = "bfa"

[run]
slots = 40
seed = 7

[traffic]
load = 0.5
duration = { model = "deterministic", slots = 1 }

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

/// A daemon and generator sharing one compiled scenario plan: the daemon
/// fires the plan's converter failure, outage, and fallback windows while
/// the generator draws the plan's traffic stream, and the session stays
/// clean with sound per-phase / during-disruption attribution.
#[test]
fn scenario_session_is_clean_with_window_breakdowns() {
    let (plan, report, server_report) = scenario_session(SMOKE_STORM);

    assert!(report.clean(), "InvalidRequest denies: {}", report.denies_invalid);
    assert!(report.grants > 0, "a 0.5-load scenario must grant something");
    // The final SLOT_COMPLETE may land after the last reply settles the
    // closed loop, so the generator observes at least all but one.
    assert!(report.slots >= plan.total_slots() - 1, "slots {}", report.slots);

    // The implicit steady phase covers the whole run, and its tallies are
    // exactly the session totals.
    let w = &report.windows;
    assert_eq!(w.phases.len(), 1);
    let phase = &w.phases[0];
    assert_eq!(phase.name, "steady");
    assert_eq!(phase.slots, plan.total_slots());
    assert_eq!(phase.offered, report.requests);
    assert_eq!(phase.granted, report.grants);

    // Disruption windows [4, 8) and [12, 16): eight attributed slots with
    // real traffic through them.
    assert_eq!(w.during.slots, 8);
    assert!(w.during.offered > 0);
    assert_eq!(
        w.during.granted + w.during.contention_losses + w.during.source_busy,
        w.during.offered,
        "closed pacing settles every windowed request"
    );
    assert_eq!(w.before.slots + w.during.slots + w.after.slots, plan.total_slots());

    // The daemon applied the full timeline and the fallback engaged for
    // both windows and reverted after each.
    let summary = server_report.scenario.expect("scenario daemon reports a summary");
    assert_eq!(summary.events_applied, plan.events().len() as u64);
    assert_eq!(summary.fallback_engagements, 2);
    assert_eq!(summary.fallback_reverts, 2);
    assert_eq!(summary.engaged_slots, 8);
}

/// Serves one scenario plan on an in-process daemon and drives it with a
/// closed-loop generator on the same plan.
fn scenario_session(
    doc: &str,
) -> (std::sync::Arc<wdm_scenario::CompiledPlan>, LoadReport, wdm_serve::ServerReport) {
    let plan = std::sync::Arc::new(wdm_scenario::load_plan(doc).unwrap());
    // No trace: a session trace cannot replay mid-run disruptions.
    let config = ServerConfig {
        engine: EngineConfig::new(plan.n(), plan.conversion(), plan.policy()),
        slot_period: Duration::ZERO,
        max_slots: None,
        scenario: Some(std::sync::Arc::clone(&plan)),
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let report = run(&LoadgenConfig {
        addr,
        mode: Mode::Closed,
        load: 0.0, // overridden by the plan
        batches: 0,
        seed: 0,
        mean_duration: 1.0,
        reserve_fraction: 0.0,
        reserve_lead: 4,
        shutdown_server: true,
        scenario: Some(std::sync::Arc::clone(&plan)),
    })
    .unwrap();
    let server_report = handle.join().unwrap().unwrap();
    (plan, report, server_report)
}

/// The generator's windows are the simulator's: with warmup slots (which
/// swallow the converter failure) ahead of the measured ones, a live
/// closed-loop session fills every window with exactly the offline run's
/// counts, warmup skipped, and the daemon's driver reports the offline
/// run's summary.
#[test]
fn scenario_session_windows_equal_the_offline_run() {
    let doc = SMOKE_STORM.replacen("[run]\n", "[run]\nwarmup = 10\n", 1);
    let (plan, report, server_report) = scenario_session(&doc);
    let offline = wdm_sim::scenario::run_scenario(&plan).unwrap();
    assert!(report.clean(), "InvalidRequest denies: {}", report.denies_invalid);
    let w = &report.windows;
    assert_eq!(w.phases[0].slots, 40, "the 10 warmup slots are not measured");
    assert_eq!(w.phases[0].offered, offline.metrics.offered());
    assert_eq!(*w, offline.windows);
    assert_eq!(server_report.scenario, Some(offline.summary));
}

/// A plan compiled for a different fabric is rejected before any traffic
/// is submitted.
#[test]
fn scenario_topology_mismatch_is_rejected() {
    let doc = r#"
schema = 1

[interconnect]
n = 8
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
"#;
    let plan = std::sync::Arc::new(wdm_scenario::load_plan(doc).unwrap());
    let (addr, server) =
        spawn_server(Policy::BreakFirstAvailable, Conversion::symmetric_circular(K, 3).unwrap());
    let err = run(&LoadgenConfig {
        addr: addr.clone(),
        mode: Mode::Closed,
        load: 0.2,
        batches: 10,
        seed: 1,
        mean_duration: 1.0,
        reserve_fraction: 0.0,
        reserve_lead: 4,
        shutdown_server: false,
        scenario: Some(plan),
    })
    .unwrap_err();
    assert!(matches!(err, wdm_serve::ProtocolError::Scenario { .. }), "{err}");
    // Shut the (unused) daemon down so the test exits cleanly.
    let report = run(&LoadgenConfig {
        addr,
        mode: Mode::Closed,
        load: 0.1,
        batches: 5,
        seed: 1,
        mean_duration: 1.0,
        reserve_fraction: 0.0,
        reserve_lead: 4,
        shutdown_server: true,
        scenario: None,
    })
    .unwrap();
    assert!(report.clean());
    let _ = server.join().unwrap().unwrap();
}

#[test]
fn open_mode_rejects_reservation_sessions() {
    // No server needed: the config is rejected before connecting.
    let err = run(&LoadgenConfig {
        addr: "127.0.0.1:1".to_owned(),
        mode: Mode::Open { interval: Duration::from_micros(100) },
        load: 0.3,
        batches: 10,
        seed: 1,
        mean_duration: 1.0,
        reserve_fraction: 0.25,
        reserve_lead: 2,
        shutdown_server: false,
        scenario: None,
    })
    .unwrap_err();
    assert!(matches!(err, wdm_serve::ProtocolError::UnexpectedFrame { .. }), "{err}");
}
