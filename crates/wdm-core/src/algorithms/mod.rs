//! The scheduling/matching algorithms of the paper plus baselines.
//!
//! | Algorithm | Paper | Applies to | Complexity |
//! |-----------|-------|-----------|------------|
//! | [`first_available`](mod@first_available) | Table 2, Thm 1 | non-circular conversion (convex request graphs with monotone endpoints) | `O(k)` |
//! | [`glover`](mod@glover) | Table 1 | any convex bipartite graph | `O((n+k) log n)` |
//! | [`break_fa`] | Table 3, Thm 2 | circular conversion | `O(dk)` |
//! | [`approx`] | §IV-C, Thm 3 | circular conversion | `O(k)`, within `(d−1)/2` of optimal |
//! | [`full_range`] | §I | full-range conversion | `O(k)` |
//! | [`hopcroft_karp`](mod@hopcroft_karp) | baseline \[1\] | arbitrary request graphs | `O(E sqrt(V))` |
//! | [`kuhn`](mod@kuhn) | verification oracle | arbitrary request graphs | `O(V · E)` |
//!
//! Each algorithm has exactly one public entry point. The compact
//! schedulers that [`crate::FiberScheduler`] runs per slot
//! ([`fa_schedule_into`], [`break_fa_schedule_into`], [`approx_schedule_into`],
//! [`full_range_schedule_into`], [`repair_schedule_into`]) work directly on a
//! [`crate::RequestVector`] and [`crate::ChannelMask`] without materializing
//! the request graph, and write into a caller-provided output buffer out of
//! a [`crate::ScratchArena`], so the steady-state slot allocates nothing.
//! The oracles ([`hopcroft_karp()`], [`kuhn()`], [`glover()`],
//! [`first_available()`]) and the graph-based references
//! ([`first_available_matching`], [`break_fa_matching`]) allocate and are
//! used for verification.
//!
//! Certification goes through two places: compact schedules through
//! [`crate::FiberScheduler::schedule_with_mask_checked`] and
//! [`crate::FiberScheduler::schedule_slot_checked`], graph matchings through
//! [`crate::MatchingCertificate::check`] (plus
//! [`crate::MatchingCertificate::check_crossing_free`] for
//! [`break_fa_matching`]).

pub mod approx;
pub mod break_fa;
pub mod first_available;
pub mod full_range;
pub mod glover;
pub mod hopcroft_karp;
pub mod kuhn;
pub mod repair;

pub use approx::{approx_schedule_into, ApproxStats};
pub use break_fa::{break_fa_matching, break_fa_schedule_into, BreakChoice};
pub use first_available::{
    fa_schedule_into, first_available, first_available_matching, ConvexInstance,
};
pub use full_range::full_range_schedule_into;
pub use glover::glover;
pub use hopcroft_karp::hopcroft_karp;
pub use kuhn::kuhn;
pub use repair::{repair_schedule_into, RepairOutcome, DEFAULT_REPAIR_BUDGET};

use crate::conversion::Conversion;
use crate::error::Error;
use crate::occupancy::ChannelMask;
use crate::request::RequestVector;

/// One granted connection in wavelength terms: a request that arrived on
/// `input` leaves on output channel `output`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Assignment {
    /// Input wavelength of the granted request.
    pub input: usize,
    /// Output wavelength channel assigned to it.
    pub output: usize,
}

/// Checks that a list of assignments is a feasible contention-free schedule
/// for the given requests and channel availability:
///
/// * every assigned output channel is free and used at most once,
/// * at most `requests.count(w)` grants are issued per input wavelength,
/// * every grant respects the conversion range.
///
/// Paper: §II (assignment validity: one grant per request and per channel, within conversion range).
pub fn validate_assignments(
    conv: &Conversion,
    requests: &RequestVector,
    mask: &ChannelMask,
    assignments: &[Assignment],
) -> Result<(), Error> {
    conv.check_k(requests.k())?;
    conv.check_k(mask.k())?;
    let k = conv.k();
    let mut used_output = vec![false; k];
    let mut granted = vec![0usize; k];
    for a in assignments {
        if a.input >= k {
            return Err(Error::InvalidWavelength { wavelength: a.input, k });
        }
        if a.output >= k {
            return Err(Error::InvalidWavelength { wavelength: a.output, k });
        }
        if !mask.is_free(a.output) || used_output[a.output] {
            return Err(Error::AlreadyMatched { left_side: false, index: a.output });
        }
        used_output[a.output] = true;
        granted[a.input] += 1;
        if granted[a.input] > requests.count(a.input) {
            return Err(Error::AlreadyMatched { left_side: true, index: a.input });
        }
        if !conv.converts(a.input, a.output) {
            return Err(Error::NotAnEdge { left: a.input, right: a.output });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_feasible_schedule() {
        let conv = Conversion::symmetric_circular(6, 3).unwrap();
        let rv = RequestVector::from_counts(vec![2, 1, 0, 1, 1, 2]).unwrap();
        let mask = ChannelMask::all_free(6);
        let assignments = vec![
            Assignment { input: 0, output: 5 },
            Assignment { input: 0, output: 0 },
            Assignment { input: 1, output: 1 },
            Assignment { input: 3, output: 2 },
            Assignment { input: 4, output: 3 },
            Assignment { input: 5, output: 4 },
        ];
        validate_assignments(&conv, &rv, &mask, &assignments).unwrap();
    }

    #[test]
    fn validate_rejects_double_channel_use() {
        let conv = Conversion::full(4).unwrap();
        let rv = RequestVector::from_counts(vec![2, 0, 0, 0]).unwrap();
        let mask = ChannelMask::all_free(4);
        let assignments =
            vec![Assignment { input: 0, output: 1 }, Assignment { input: 0, output: 1 }];
        assert!(validate_assignments(&conv, &rv, &mask, &assignments).is_err());
    }

    #[test]
    fn validate_rejects_overgranting_a_wavelength() {
        let conv = Conversion::full(4).unwrap();
        let rv = RequestVector::from_counts(vec![1, 0, 0, 0]).unwrap();
        let mask = ChannelMask::all_free(4);
        let assignments =
            vec![Assignment { input: 0, output: 1 }, Assignment { input: 0, output: 2 }];
        assert!(validate_assignments(&conv, &rv, &mask, &assignments).is_err());
    }

    #[test]
    fn validate_rejects_occupied_channel() {
        let conv = Conversion::full(4).unwrap();
        let rv = RequestVector::from_counts(vec![1, 0, 0, 0]).unwrap();
        let mask = ChannelMask::with_occupied(4, &[1]).unwrap();
        let assignments = vec![Assignment { input: 0, output: 1 }];
        assert!(validate_assignments(&conv, &rv, &mask, &assignments).is_err());
    }

    #[test]
    fn validate_rejects_out_of_conversion_range() {
        let conv = Conversion::none(4).unwrap();
        let rv = RequestVector::from_counts(vec![1, 0, 0, 0]).unwrap();
        let mask = ChannelMask::all_free(4);
        let assignments = vec![Assignment { input: 0, output: 1 }];
        assert!(matches!(
            validate_assignments(&conv, &rv, &mask, &assignments),
            Err(Error::NotAnEdge { left: 0, right: 1 })
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_wavelengths() {
        let conv = Conversion::full(4).unwrap();
        let rv = RequestVector::from_counts(vec![1, 0, 0, 0]).unwrap();
        let mask = ChannelMask::all_free(4);
        assert!(
            validate_assignments(&conv, &rv, &mask, &[Assignment { input: 4, output: 0 }]).is_err()
        );
        assert!(
            validate_assignments(&conv, &rv, &mask, &[Assignment { input: 0, output: 4 }]).is_err()
        );
    }
}
