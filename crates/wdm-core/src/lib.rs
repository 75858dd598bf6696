//! # wdm-core
//!
//! Request graphs and maximum-matching scheduling algorithms for
//! wavelength-convertible WDM optical interconnects.
//!
//! This crate implements the algorithms of Zhang & Yang, *"Distributed
//! Scheduling Algorithms for Wavelength Convertible WDM Optical
//! Interconnects"*, IPDPS 2003. An `N×N` WDM interconnect carries `k`
//! wavelengths per fiber and is equipped with limited-range wavelength
//! converters of conversion degree `d = e + f + 1` on its output side. In a
//! time-slotted interconnect, the connection requests arriving in a slot are
//! partitioned by destination fiber and each output fiber is scheduled
//! independently — the scheduling problem per fiber is a maximum matching in
//! the *request graph*, a bipartite graph between requests and free output
//! wavelength channels.
//!
//! The paper's key observation is that limited-range conversion gives the
//! request graph enough structure for matching in time *independent of the
//! interconnect size `N`*:
//!
//! * **non-circular symmetrical** conversion (conversion intervals clamped at
//!   the spectrum edges) makes the request graph *convex*, and the
//!   [`algorithms::first_available`](mod@algorithms::first_available) algorithm finds a maximum matching in
//!   `O(k)` (Theorem 1);
//! * **circular symmetrical** conversion (intervals wrap mod `k`) is handled
//!   by [`algorithms::break_fa`]: try each of the `d` edges incident to one
//!   request as a *breaking edge*, reduce to a convex instance, and run First
//!   Available — `O(dk)` total (Theorem 2);
//! * a single-break [`algorithms::approx`] variant runs in `O(k)` and is
//!   within `(d−1)/2` of the maximum (Theorem 3 / Corollary 1).
//!
//! The general-purpose baselines the paper compares against —
//! Hopcroft–Karp ([`algorithms::hopcroft_karp()`]) and Glover's convex
//! bipartite algorithm ([`algorithms::glover()`]) — are also provided, along
//! with an augmenting-path oracle ([`algorithms::kuhn()`]) used for
//! verification.
//!
//! Each algorithm has one public entry point. The compact per-slot
//! schedulers write into a caller's buffer out of a [`ScratchArena`] and
//! are certified through [`FiberScheduler::schedule_with_mask_checked`] and
//! [`FiberScheduler::schedule_slot_checked`]; graph matchings are certified
//! through [`MatchingCertificate`] (see [`verify`]).
//!
//! ## Quick example
//!
//! The running example of the paper: `k = 6` wavelengths, conversion degree
//! `d = 3`, request vector `[2, 1, 0, 1, 1, 2]` (Fig. 3). All seven requests
//! cannot be granted (only six channels exist); the maximum matching has
//! size 6 (Fig. 4):
//!
//! ```
//! use wdm_core::{Conversion, RequestVector, scheduler::{FiberScheduler, Policy}};
//!
//! let conv = Conversion::symmetric_circular(6, 3).unwrap();
//! let requests = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
//! let scheduler = FiberScheduler::new(conv, Policy::Auto);
//! let schedule = scheduler.schedule(&requests).unwrap();
//! assert_eq!(schedule.granted(), 6);
//! assert_eq!(schedule.rejected(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod algorithms;
pub mod arena;
pub mod breaking;
pub mod conversion;
pub mod crossing;
pub mod error;
pub mod graph;
pub mod interval;
pub mod matching;
pub mod occupancy;
pub mod priority;
pub mod render;
pub mod request;
pub mod scheduler;
pub mod verify;

pub use arena::ScratchArena;
pub use conversion::{Conversion, ConversionKind};
pub use error::Error;
pub use graph::RequestGraph;
pub use interval::Span;
pub use matching::Matching;
pub use occupancy::ChannelMask;
pub use priority::{ClassSchedule, PriorityScheduler};
pub use request::RequestVector;
pub use scheduler::{FiberScheduler, Policy, Schedule, SlotPath, SlotStats, WarmStats};
pub use verify::MatchingCertificate;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::algorithms;
    pub use crate::arena::ScratchArena;
    pub use crate::conversion::{Conversion, ConversionKind};
    pub use crate::error::Error;
    pub use crate::graph::RequestGraph;
    pub use crate::interval::Span;
    pub use crate::matching::Matching;
    pub use crate::occupancy::ChannelMask;
    pub use crate::request::RequestVector;
    pub use crate::scheduler::{FiberScheduler, Policy, Schedule, SlotPath, SlotStats, WarmStats};
    pub use crate::verify::MatchingCertificate;
}
