//! Differential battery: the arena-backed compact schedulers must give the
//! same answer whatever state their arena is in, and must keep agreeing
//! with the matching oracles.
//!
//! Two properties per algorithm family:
//!
//! * **Size agreement** — `|FA| == |Glover| == |Hopcroft–Karp|` on
//!   non-circular instances and `|BFA| == |Hopcroft–Karp|` on circular
//!   ones (the paper's Theorems 1 and 2, exercised through the buffer
//!   reusing API).
//! * **Bit-identity** — running a scheduler through a *dirty, reused*
//!   [`ScratchArena`] and a stale output buffer yields exactly the same
//!   output (assignments and stats — not just equal sizes) as a fresh
//!   arena. This is what lets `FiberScheduler::schedule_slot` reuse one
//!   arena per fiber for the lifetime of the interconnect.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;

use std::fmt::Debug;

use wdm_core::algorithms::{
    approx_schedule_into, break_fa_schedule_into, fa_schedule_into, first_available,
    full_range_schedule_into, glover, hopcroft_karp, kuhn, repair_schedule_into, Assignment,
    BreakChoice, ConvexInstance,
};
use wdm_core::{ChannelMask, Conversion, Error, RequestGraph, RequestVector, ScratchArena};

#[derive(Debug, Clone)]
struct Instance {
    k: usize,
    e: usize,
    f: usize,
    counts: Vec<usize>,
    occupied: Vec<bool>,
}

fn instance(max_k: usize, max_count: usize) -> impl Strategy<Value = Instance> {
    (1..=max_k).prop_flat_map(move |k| {
        let reach = (0..k, 0..k).prop_filter("degree <= k", move |(e, f)| e + f < k);
        (
            Just(k),
            reach,
            proptest::collection::vec(0..=max_count, k),
            proptest::collection::vec(proptest::bool::weighted(0.2), k),
        )
            .prop_map(|(k, (e, f), counts, occupied)| Instance {
                k,
                e,
                f,
                counts,
                occupied,
            })
    })
}

fn mask_of(inst: &Instance) -> ChannelMask {
    ChannelMask::from_flags(inst.occupied.iter().map(|&o| !o).collect()).unwrap()
}

/// A scratch arena that has been through unrelated work, so stale contents
/// from other schedulers (and other instances) are present in every buffer.
fn dirty_arena(k: usize) -> ScratchArena {
    let mut scratch = ScratchArena::for_k(k.min(3));
    let conv = Conversion::symmetric_circular(5, 3).unwrap();
    let rv = RequestVector::from_counts(vec![2, 0, 1, 3, 1]).unwrap();
    let mask = ChannelMask::all_free(5);
    let mut out = Vec::new();
    let choice = BreakChoice::default();
    break_fa_schedule_into(&conv, &rv, &mask, choice, &mut scratch, &mut out).unwrap();
    let mut owner = vec![None; 5];
    let _ = repair_schedule_into(&conv, &rv, &mask, &mut owner, 8, &mut scratch, &mut out);
    let non_circular = Conversion::non_circular(5, 1, 1).unwrap();
    fa_schedule_into(&non_circular, &rv, &mask, &mut scratch, &mut out).unwrap();
    scratch
}

/// Runs a compact scheduler through a fresh arena and again through `dirty`
/// with a stale output buffer, asserts the two runs are bit-identical, and
/// returns the fresh run's schedule and stats.
fn fresh_and_reused<T: PartialEq + Debug>(
    dirty: &mut ScratchArena,
    run: impl Fn(&mut ScratchArena, &mut Vec<Assignment>) -> Result<T, Error>,
) -> (Vec<Assignment>, T) {
    let mut fresh_out = Vec::new();
    let fresh = run(&mut ScratchArena::new(), &mut fresh_out).unwrap();
    let mut reused_out = vec![Assignment { input: 0, output: 0 }; 3];
    let reused = run(dirty, &mut reused_out).unwrap();
    prop_assert_eq!(&reused_out, &fresh_out, "reused arena changed the schedule");
    prop_assert_eq!(&reused, &fresh, "reused arena changed the stats");
    (fresh_out, fresh)
}

/// Proptest sample size, shrunk under Miri: the interpreter runs each case
/// orders of magnitude slower than native code, and `cargo xtask miri` needs
/// the whole file inside the CI budget while still crossing every code path.
fn cases(native: u32) -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(miri) { 16 } else { native })
}

proptest! {
    #![proptest_config(cases(256))]

    /// Non-circular: `|FA| == |Glover| == |Hopcroft–Karp|`, plus
    /// reused-vs-fresh arena bit-identity for FA.
    #[test]
    fn fa_glover_hk_agree_non_circular(inst in instance(20, 4)) {
        let conv = Conversion::non_circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut scratch = dirty_arena(inst.k);

        let (fa, ()) =
            fresh_and_reused(&mut scratch, |s, o| fa_schedule_into(&conv, &rv, &mask, s, o));

        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let ci = ConvexInstance::from_graph(&g);
        let glover_size = glover(&ci).iter().flatten().count();
        prop_assert_eq!(fa.len(), glover_size, "|FA| == |Glover|");
        prop_assert_eq!(glover_size, hopcroft_karp(&g).size(), "|Glover| == |HK|");
    }

    /// Circular: `|BFA| == |Hopcroft–Karp|` for both breaking-vertex
    /// policies, plus reused-vs-fresh arena bit-identity.
    #[test]
    fn bfa_hk_agree_circular(inst in instance(20, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut scratch = dirty_arena(inst.k);

        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let oracle = hopcroft_karp(&g).size();
        for choice in [BreakChoice::FirstRequest, BreakChoice::DensestWavelength] {
            let (bfa, ()) = fresh_and_reused(&mut scratch, |s, o| {
                break_fa_schedule_into(&conv, &rv, &mask, choice, s, o)
            });
            prop_assert_eq!(bfa.len(), oracle, "|BFA| == |HK| under {:?}", choice);
        }
    }

    /// Both geometries: the approximation is bit-identical (assignments,
    /// δ and bound) between reused and fresh arenas; Kuhn agrees with
    /// Hopcroft–Karp on size.
    #[test]
    fn approx_and_oracles_arena_vs_fresh(
        inst in instance(18, 4),
        circular in proptest::bool::ANY,
    ) {
        let conv = if circular {
            Conversion::circular(inst.k, inst.e, inst.f).unwrap()
        } else {
            Conversion::non_circular(inst.k, inst.e, inst.f).unwrap()
        };
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut scratch = dirty_arena(inst.k);

        if circular {
            fresh_and_reused(&mut scratch, |s, o| approx_schedule_into(&conv, &rv, &mask, s, o));
        }

        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        prop_assert_eq!(kuhn(&g).size(), hopcroft_karp(&g).size(), "|Kuhn| == |HK|");
    }

    /// The paper's `MATCH[]`-array form of First Available matches the
    /// compact scheduler's size, and the full-range scheduler ignores a
    /// stale output buffer.
    #[test]
    fn match_arrays_arena_vs_fresh(inst in instance(18, 4)) {
        let conv = Conversion::non_circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut scratch = dirty_arena(inst.k);

        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let ci = ConvexInstance::from_graph(&g);
        let (fa, ()) =
            fresh_and_reused(&mut scratch, |s, o| fa_schedule_into(&conv, &rv, &mask, s, o));
        prop_assert_eq!(first_available(&ci).iter().flatten().count(), fa.len());

        let full = Conversion::full(inst.k).unwrap();
        fresh_and_reused(&mut scratch, |_, o| full_range_schedule_into(&full, &rv, &mask, o));
    }

    /// One arena serving many consecutive slots (the production shape) gives
    /// the same answers as a fresh arena per slot.
    #[test]
    fn arena_reuse_across_slots_is_identical(
        instances in proptest::collection::vec(instance(14, 3), 1..6),
    ) {
        let mut reused = ScratchArena::new();
        for inst in &instances {
            let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
            let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
            let mask = mask_of(inst);
            let choice = BreakChoice::default();
            fresh_and_reused(&mut reused, |s, o| {
                break_fa_schedule_into(&conv, &rv, &mask, choice, s, o)
            });
        }
    }
}
