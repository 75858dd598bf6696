//! # wdm-serve
//!
//! A slot-clocked TCP scheduling daemon over the paper's distributed
//! per-output-fiber architecture — std threads and bounded queues only, no
//! async runtime:
//!
//! * [`protocol`] — the versioned length-prefixed binary wire protocol
//!   (SUBMIT batches in, per-slot GRANT/DENY streams out), with every
//!   malformed input mapped to a typed [`protocol::ProtocolError`];
//! * [`clock`] — the deterministic fixed-cadence slot clock (catch-up
//!   without drift; zero period free-runs);
//! * [`engine`] — the TCP-free decision core: bounded per-destination-fiber
//!   admission queues (deny-with-reason + retry-after on overload, never
//!   unbounded buffering) draining each slot into the offline
//!   [`wdm_interconnect::Interconnect`], which runs the same
//!   [`wdm_interconnect::FiberUnit`] shards as every other consumer — the
//!   steady-state slot loop allocates nothing and a recorded session
//!   replays bit-for-bit through [`wdm_sim::trace`]. A compiled
//!   `wdm-scenario` plan attaches to it ([`SlotEngine::attach_plan`]) and
//!   is stepped through the simulator's own driver
//!   ([`wdm_sim::scenario::ScenarioDriver`]), with no wire-format change;
//! * [`serve_sync`] — the cross-thread coordination primitives (bounded
//!   channel, stop flag, slot-sequence counter, shard admission queues) on
//!   `cfg(loom)`-swappable atomics/mutexes/condvars, exhaustively
//!   model-checked by `tests/loom_serve.rs` under `cargo xtask loom`; the
//!   canonical shutdown drain order is documented there;
//! * [`server`] — the daemon: acceptor + per-connection reader threads
//!   feeding a bounded intake channel, the coordinator slot loop, and a
//!   results thread streaming grant/deny frames back;
//! * [`client`] — a blocking client used by `wdm-loadgen` and the smoke
//!   tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod client;
pub mod clock;
pub mod engine;
pub mod protocol;
pub mod serve_sync;
pub mod server;

pub use client::Client;
pub use clock::SlotClock;
pub use engine::{EngineConfig, Reply, SlotEngine, SlotSummary, Verdict};
pub use protocol::{
    DenyReason, Frame, ProtocolError, ReserveRequest, SubmitRequest, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ServerReport};
pub use wdm_interconnect::PreemptionPolicy;
