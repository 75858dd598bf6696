//! Property-based verification of the paper's theorems.
//!
//! These tests mechanically validate, on randomized instances, the claims
//! the paper proves analytically:
//!
//! * Theorem 1 — First Available finds a *maximum* matching for
//!   non-circular conversion (checked against Kuhn/Hopcroft–Karp oracles).
//! * Theorem 2 — Break and First Available finds a maximum matching for
//!   circular conversion (compact and explicit implementations).
//! * Theorem 3 / Corollary 1 — the single-break approximation is within
//!   `max(δ−1, d−δ)` of the maximum.
//! * Lemma 1 — uncrossing preserves matching size and terminates.
//! * §V — all of the above continue to hold when output channels are
//!   occupied.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;

use wdm_core::algorithms::{
    approx_schedule_into, break_fa_matching, break_fa_schedule_into, fa_schedule_into,
    first_available, first_available_matching, full_range_schedule_into, glover, hopcroft_karp,
    kuhn, repair_schedule_into, validate_assignments, Assignment, BreakChoice, ConvexInstance,
    DEFAULT_REPAIR_BUDGET,
};
use wdm_core::crossing::{find_crossing_pair, uncross};
use wdm_core::verify::{
    certify_assignments, check_convex, check_interval_matching, check_monotone_endpoints,
    MatchingCertificate,
};
use wdm_core::{
    ChannelMask, Conversion, Error, FiberScheduler, Policy, RequestGraph, RequestVector,
    ScratchArena, SlotPath,
};

/// Strategy: a conversion geometry plus matching request vector and mask.
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

/// Breaks at `choice` and returns the Break-and-First-Available schedule.
fn bfa_with(
    conv: &Conversion,
    rv: &RequestVector,
    mask: &ChannelMask,
    choice: BreakChoice,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    break_fa_schedule_into(conv, rv, mask, choice, &mut ScratchArena::new(), &mut out).unwrap();
    out
}

/// The schedule `policy` produces through `schedule_with_mask_checked`,
/// with its Theorem 3 bound (`None` for the exact policies).
fn certified(
    conv: Conversion,
    policy: Policy,
    rv: &RequestVector,
    mask: &ChannelMask,
) -> (Vec<Assignment>, Option<usize>) {
    let schedule = FiberScheduler::new(conv, policy).schedule_with_mask_checked(rv, mask).unwrap();
    (schedule.assignments().to_vec(), schedule.approx_bound())
}

/// Runs every `Policy` through both certified `FiberScheduler` entry points
/// on one slot. A policy the conversion admits must certify (feasible and
/// maximum, or within its Theorem 3 bound) through both, grant the same
/// schedule through both, and certify again on a second, warm-started slot;
/// a policy it does not admit must be refused by both.
fn certify_every_policy(conv: Conversion, rv: &RequestVector, mask: &ChannelMask) {
    let g = RequestGraph::with_mask(conv, rv, mask).unwrap();
    let optimal = hopcroft_karp(&g).size();
    let all = [
        Policy::Auto,
        Policy::FirstAvailable,
        Policy::BreakFirstAvailable,
        Policy::Approximate,
        Policy::HopcroftKarp,
    ];
    for policy in all {
        // No wildcard arm: a new `Policy` variant fails to compile here
        // until it is listed above and certified.
        let admitted = match policy {
            Policy::Auto | Policy::HopcroftKarp => true,
            Policy::FirstAvailable => !conv.is_circular(),
            Policy::BreakFirstAvailable | Policy::Approximate => conv.is_circular(),
        };
        let mut scheduler = FiberScheduler::new(conv, policy);
        let mut arena = ScratchArena::new();
        let stateless = scheduler.schedule_with_mask_checked(rv, mask);
        let slot = scheduler.schedule_slot_checked(rv, mask, &mut arena);
        if !admitted {
            prop_assert!(
                matches!(stateless, Err(Error::UnsupportedConversion { .. }))
                    && matches!(slot, Err(Error::UnsupportedConversion { .. })),
                "{:?} must refuse {:?}",
                policy,
                conv
            );
            continue;
        }
        let schedule = stateless.unwrap();
        let stats = slot.unwrap();
        prop_assert_eq!(schedule.assignments(), arena.assignments(), "{:?}", policy);
        prop_assert_eq!(stats.approx_bound, schedule.approx_bound(), "{:?}", policy);
        match schedule.approx_bound() {
            None => prop_assert_eq!(schedule.granted(), optimal, "{:?}", policy),
            Some(bound) => prop_assert!(
                schedule.granted() <= optimal && schedule.granted() + bound >= optimal,
                "{:?}: {} granted, bound {}, optimal {}",
                policy,
                schedule.granted(),
                bound,
                optimal
            ),
        }
        let warm = scheduler.schedule_slot_checked(rv, mask, &mut arena).unwrap();
        prop_assert_eq!(warm.granted, stats.granted, "{:?} warm slot", policy);
    }
}

/// Proptest sample size, shrunk under Miri: the interpreter runs each case
/// orders of magnitude slower than native code, and `cargo xtask miri` needs
/// the whole file inside the CI budget while still crossing every code path.
fn cases(native: u32) -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(miri) { 16 } else { native })
}

proptest! {
    #![proptest_config(cases(256))]

    /// Theorem 1: First Available is maximum for non-circular conversion,
    /// with and without occupied channels.
    #[test]
    fn first_available_is_maximum(inst in instance(24, 4)) {
        let conv = Conversion::non_circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut a = Vec::new();
        fa_schedule_into(&conv, &rv, &mask, &mut ScratchArena::new(), &mut a).unwrap();
        validate_assignments(&conv, &rv, &mask, &a).unwrap();
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let oracle = kuhn(&g).size();
        prop_assert_eq!(a.len(), oracle);
        // Graph-based FA agrees too.
        let m = first_available_matching(&g);
        m.validate(&g).unwrap();
        prop_assert_eq!(m.size(), oracle);
    }

    /// Theorem 2: Break and First Available is maximum for circular
    /// conversion — compact and explicit implementations, both breaking
    /// choices, with occupied channels.
    #[test]
    fn break_fa_is_maximum(inst in instance(20, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let oracle = hopcroft_karp(&g).size();

        let compact = bfa_with(&conv, &rv, &mask, BreakChoice::FirstRequest);
        validate_assignments(&conv, &rv, &mask, &compact).unwrap();
        prop_assert_eq!(compact.len(), oracle, "compact BFA");

        let densest = bfa_with(&conv, &rv, &mask, BreakChoice::DensestWavelength);
        validate_assignments(&conv, &rv, &mask, &densest).unwrap();
        prop_assert_eq!(densest.len(), oracle, "densest-wavelength BFA");

        let explicit = break_fa_matching(&g);
        explicit.validate(&g).unwrap();
        prop_assert_eq!(explicit.size(), oracle, "explicit BFA");
    }

    /// Theorem 3 / Corollary 1: the approximation's gap never exceeds its
    /// reported bound, and it never exceeds the maximum.
    #[test]
    fn approx_within_bound(inst in instance(20, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut assignments = Vec::new();
        let out =
            approx_schedule_into(&conv, &rv, &mask, &mut ScratchArena::new(), &mut assignments)
                .unwrap();
        validate_assignments(&conv, &rv, &mask, &assignments).unwrap();
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let oracle = hopcroft_karp(&g).size();
        prop_assert!(assignments.len() <= oracle);
        prop_assert!(
            assignments.len() + out.bound >= oracle,
            "got {} + bound {} < optimal {}", assignments.len(), out.bound, oracle
        );
        // Corollary 1: with e = f and all channels free, the bound is
        // exactly (d−1)/2.
        if inst.e == inst.f && mask.is_all_free() && !rv.is_empty() && !conv.is_full() {
            prop_assert_eq!(out.bound, (conv.degree() - 1) / 2);
        }
    }

    /// Lemma 1: uncrossing an arbitrary maximum matching preserves its size
    /// and yields a crossing-free matching.
    #[test]
    fn uncrossing_preserves_size(inst in instance(14, 3)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let m = kuhn(&g);
        let un = uncross(&conv, &g, &m).unwrap();
        prop_assert_eq!(un.size(), m.size());
        un.validate(&g).unwrap();
        prop_assert!(find_crossing_pair(&conv, &g, &un).is_none());
    }

    /// Glover's algorithm equals the oracle on convex (non-circular)
    /// request graphs.
    #[test]
    fn glover_is_maximum_on_convex_graphs(inst in instance(20, 4)) {
        let conv = Conversion::non_circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let ci = ConvexInstance::from_graph(&g);
        let size = glover(&ci).iter().flatten().count();
        prop_assert_eq!(size, kuhn(&g).size());
    }

    /// The Auto policy always produces a feasible, maximum schedule for any
    /// conversion geometry.
    #[test]
    fn auto_policy_is_feasible_and_maximum(
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
        let schedule = FiberScheduler::new(conv, Policy::Auto)
            .schedule_with_mask(&rv, &mask)
            .unwrap();
        validate_assignments(&conv, &rv, &mask, schedule.assignments()).unwrap();
        prop_assert_eq!(schedule.granted() + schedule.rejected(), rv.total());
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        prop_assert_eq!(schedule.granted(), hopcroft_karp(&g).size());
    }

    /// Hopcroft–Karp and Kuhn always agree (two independent oracles).
    #[test]
    fn oracles_agree(inst in instance(16, 4), circular in proptest::bool::ANY) {
        let conv = if circular {
            Conversion::circular(inst.k, inst.e, inst.f).unwrap()
        } else {
            Conversion::non_circular(inst.k, inst.e, inst.f).unwrap()
        };
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let hk = hopcroft_karp(&g);
        let kn = kuhn(&g);
        hk.validate(&g).unwrap();
        kn.validate(&g).unwrap();
        prop_assert_eq!(hk.size(), kn.size());
    }

    /// Clamping per-wavelength request counts at d preserves the maximum
    /// matching size (the compact schedulers rely on this).
    #[test]
    fn clamping_preserves_matching_size(inst in instance(14, 8)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let clamped = rv.clamped(conv.degree());
        let mask = mask_of(&inst);
        let g1 = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let g2 = RequestGraph::with_mask(conv, &clamped, &mask).unwrap();
        prop_assert_eq!(kuhn(&g1).size(), kuhn(&g2).size());
    }
}

// The certificate suite: every algorithm output must pass its certificate,
// on ≥1000 random graphs per conversion kind. Compact schedules are
// certified through `FiberScheduler::schedule_with_mask_checked` and
// `schedule_slot_checked`, graph matchings through `MatchingCertificate`;
// both return `Err` on any violation, so a plain `.unwrap()` here is the
// assertion. `cargo xtask lint` fails when a public `wdm_core::algorithms`
// function is not called in this file or a `Policy` variant is not run
// through both certified entry points.
proptest! {
    #![proptest_config(cases(1000))]

    /// Every policy through both certified entry points, on non-circular,
    /// circular and full-range conversions of the same slot.
    #[test]
    fn certified_every_policy(inst in instance(20, 4)) {
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        for conv in [
            Conversion::non_circular(inst.k, inst.e, inst.f).unwrap(),
            Conversion::circular(inst.k, inst.e, inst.f).unwrap(),
            Conversion::full(inst.k).unwrap(),
        ] {
            certify_every_policy(conv, &rv, &mask);
        }
    }

    /// Theorem 1 via certificates: on random non-circular graphs, the
    /// compact FA schedule is the one `Policy::FirstAvailable` certifies
    /// and |FA| equals |Hopcroft–Karp|; the graph and interval forms of
    /// First Available, and Glover, are certified maximum too.
    #[test]
    fn certified_fa_matches_hopcroft_karp(inst in instance(20, 4)) {
        let conv = Conversion::non_circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut a = Vec::new();
        fa_schedule_into(&conv, &rv, &mask, &mut ScratchArena::new(), &mut a).unwrap();
        prop_assert_eq!(&certified(conv, Policy::FirstAvailable, &rv, &mask).0, &a);
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let hk = hopcroft_karp(&g);
        MatchingCertificate::new(&g, &hk).check().unwrap();
        prop_assert_eq!(a.len(), hk.size());
        for j in 0..g.left_count() {
            g.position_interval_checked(j).unwrap();
        }
        let m = first_available_matching(&g);
        MatchingCertificate::new(&g, &m).check().unwrap();
        prop_assert_eq!(m.size(), hk.size());
        let ci = ConvexInstance::from_graph(&g);
        check_convex(&ci).unwrap();
        check_monotone_endpoints(&ci).unwrap();
        check_interval_matching(&ci, &first_available(&ci)).unwrap();
        check_interval_matching(&ci, &glover(&ci)).unwrap();
    }

    /// Theorem 2 via certificates: on random circular graphs, the compact
    /// BFA schedule is the one `Policy::BreakFirstAvailable` certifies and
    /// |BFA| equals |Hopcroft–Karp|; the explicit matching is certified
    /// maximum and crossing-free (Lemma 1 / Definition 1).
    #[test]
    fn certified_bfa_matches_hopcroft_karp(inst in instance(20, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let a = bfa_with(&conv, &rv, &mask, BreakChoice::default());
        prop_assert_eq!(&certified(conv, Policy::BreakFirstAvailable, &rv, &mask).0, &a);
        let g = RequestGraph::with_mask(conv, &rv, &mask).unwrap();
        let hk = hopcroft_karp(&g);
        MatchingCertificate::new(&g, &hk).check().unwrap();
        prop_assert_eq!(a.len(), hk.size());
        let m = break_fa_matching(&g);
        let cert = MatchingCertificate::new(&g, &m);
        cert.check().unwrap();
        cert.check_crossing_free().unwrap();
        prop_assert_eq!(m.size(), hk.size());
    }

    /// Theorem 3 via certificates: the compact approximation is the schedule
    /// `Policy::Approximate` certifies within its reported bound, and with a
    /// symmetric conversion range the bound is at most (d−1)/2.
    #[test]
    fn certified_approx_within_bound(inst in instance(20, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut a = Vec::new();
        let out = approx_schedule_into(&conv, &rv, &mask, &mut ScratchArena::new(), &mut a)
            .unwrap();
        prop_assert_eq!(certified(conv, Policy::Approximate, &rv, &mask), (a, Some(out.bound)));
        // Corollary 1: with a symmetric range and every channel free, the
        // chosen break achieves the (d−1)/2 bound. (Occupied channels can
        // force a worse break, which Theorem 3 still covers via `bound`.)
        if inst.e == inst.f && mask.is_all_free() {
            prop_assert!(out.bound <= (conv.degree() - 1) / 2);
        }
    }

    /// §I via certificates: the full-range schedule is the one `Policy::Auto`
    /// certifies on a full-range conversion.
    #[test]
    fn certified_full_range(inst in instance(20, 4)) {
        let conv = Conversion::full(inst.k).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut a = Vec::new();
        full_range_schedule_into(&conv, &rv, &mask, &mut a).unwrap();
        prop_assert_eq!(certified(conv, Policy::Auto, &rv, &mask), (a, None));
    }

    /// Warm repair via certificates: repairing the previous slot's matching
    /// against a slot with one more request gives exactly the schedule
    /// `schedule_slot_checked` certifies on its warm path, or declines
    /// exactly when that slot falls back to a cold schedule.
    #[test]
    fn certified_repair_matches_warm_slot(inst in instance(20, 4), circular in proptest::bool::ANY) {
        let conv = if circular {
            Conversion::circular(inst.k, inst.e, inst.f).unwrap()
        } else {
            Conversion::non_circular(inst.k, inst.e, inst.f).unwrap()
        };
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mut next = inst.counts.clone();
        next[inst.k / 2] += 1;
        let next = RequestVector::from_counts(next).unwrap();
        let mask = mask_of(&inst);
        let mut scheduler = FiberScheduler::new(conv, Policy::Auto);
        let mut arena = ScratchArena::new();
        let cold = scheduler.schedule_slot_checked(&rv, &mask, &mut arena).unwrap();
        prop_assert_eq!(cold.path, SlotPath::Cold);
        let mut owner = vec![None; inst.k];
        for a in arena.assignments() {
            owner[a.output] = Some(a.input);
        }
        let warm = scheduler.schedule_slot_checked(&next, &mask, &mut arena).unwrap();

        let mut repaired = Vec::new();
        let outcome = repair_schedule_into(
            &conv, &next, &mask, &mut owner, DEFAULT_REPAIR_BUDGET,
            &mut ScratchArena::new(), &mut repaired,
        ).unwrap();
        if conv.is_full() {
            prop_assert_eq!(warm.path, SlotPath::Cold, "full range never warm-starts");
        } else if outcome.is_some() {
            prop_assert_eq!(warm.path, SlotPath::Repaired);
            prop_assert_eq!(arena.assignments(), &repaired[..]);
        } else {
            prop_assert_eq!(warm.path, SlotPath::Fallback);
        }
    }

    /// Negative direction: the certificate actually rejects. Dropping any
    /// assignment from a non-empty maximum schedule leaves an augmenting
    /// path, which `certify_assignments` must report as `NotMaximum`.
    #[test]
    fn certificate_rejects_truncated_schedules(inst in instance(16, 4)) {
        let conv = Conversion::circular(inst.k, inst.e, inst.f).unwrap();
        let rv = RequestVector::from_counts(inst.counts.clone()).unwrap();
        let mask = mask_of(&inst);
        let mut a = bfa_with(&conv, &rv, &mask, BreakChoice::default());
        certify_assignments(&conv, &rv, &mask, &a).unwrap();
        if let Some(dropped) = a.pop() {
            let err = certify_assignments(&conv, &rv, &mask, &a).unwrap_err();
            prop_assert!(
                matches!(err, Error::NotMaximum { .. }),
                "dropping {:?} gave {:?}, expected NotMaximum", dropped, err
            );
        }
    }
}
