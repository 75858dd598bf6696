//! # wdm-loadgen
//!
//! Measures a running `wdm-serve` daemon: seeded [`wdm_sim::traffic`]
//! request streams in open- or closed-loop pacing, with an HDR-style
//! log-linear histogram of submit→GRANT latency (p50/p99/p999) and the
//! observed slot rate. Closed-loop runs can mix in advance-reservation
//! sessions (`reserve_fraction`), reporting per-duration
//! RESERVE→activation-GRANT latency buckets. A compiled `wdm-scenario`
//! plan (`--scenario`) swaps in the scenario traffic stream — the same
//! one the offline simulator and the daemon's disruption timeline use —
//! and adds the simulator's per-phase and before/during/after-disruption
//! windows ([`wdm_sim::scenario::PlanWindows`]) to the report. The
//! [`LoadReport`] JSON is what BENCH_4's serve-mode rows and the CI smoke
//! gate consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod histogram;
pub mod runner;

pub use histogram::LatencyHistogram;
pub use runner::{run, DurationLatency, LoadReport, LoadgenConfig, Mode, RESERVE_ID_BASE};
