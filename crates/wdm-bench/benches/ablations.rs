//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `ablation_break_choice` — breaking-vertex selection (first request vs
//!   densest wavelength): both optimal, constant factors may differ;
//! * `ablation_representation` — compact request-vector scheduler vs the
//!   same algorithm on the explicit adjacency-list graph;
//! * `ablation_hardware` — bit-register hardware model vs the software
//!   scheduler computing the identical schedule;
//! * `ablation_policy` — exact BFA vs the O(k) approximation at equal k.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wdm_bench::{bench_rng, random_request_vector};
use wdm_core::algorithms::{
    approx_schedule_into, break_fa_matching, break_fa_schedule_into, BreakChoice,
};
use wdm_core::{ChannelMask, Conversion, RequestGraph, RequestVector, ScratchArena};
use wdm_hardware::BreakFaUnit;

const K: usize = 64;
const N: usize = 16;

/// One Break-and-First-Available slot through a reused arena, as the
/// production slot loop runs it; returns the grant count.
fn bfa(
    conv: &Conversion,
    rv: &RequestVector,
    mask: &ChannelMask,
    scratch: &mut ScratchArena,
    out: &mut Vec<wdm_core::algorithms::Assignment>,
) -> usize {
    break_fa_schedule_into(conv, rv, mask, BreakChoice::default(), scratch, out)
        .expect("schedules");
    black_box(out.len())
}

fn inputs() -> Vec<RequestVector> {
    let mut rng = bench_rng(0xAB1A);
    (0..48).map(|_| random_request_vector(&mut rng, N, K, 0.8)).collect()
}

fn bench_break_choice(c: &mut Criterion) {
    let conv = Conversion::symmetric_circular(K, 3).expect("valid");
    let mask = ChannelMask::all_free(K);
    let workloads = inputs();
    let mut group = c.benchmark_group("ablation_break_choice");
    for (label, choice) in
        [("first_request", BreakChoice::FirstRequest), ("densest", BreakChoice::DensestWavelength)]
    {
        group.bench_with_input(BenchmarkId::from_parameter(label), &workloads, |b, ws| {
            let (mut scratch, mut out) = (ScratchArena::for_k(K), Vec::new());
            let mut i = 0usize;
            b.iter(|| {
                let rv = &ws[i % ws.len()];
                i += 1;
                break_fa_schedule_into(&conv, rv, &mask, choice, &mut scratch, &mut out)
                    .expect("schedules");
                black_box(out.len())
            });
        });
    }
    group.finish();
}

fn bench_representation(c: &mut Criterion) {
    let conv = Conversion::symmetric_circular(K, 3).expect("valid");
    let mask = ChannelMask::all_free(K);
    let workloads = inputs();
    let graphs: Vec<RequestGraph> =
        workloads.iter().map(|rv| RequestGraph::new(conv, rv).expect("valid")).collect();
    let mut group = c.benchmark_group("ablation_representation");
    group.bench_function("compact_vector", |b| {
        let (mut scratch, mut out) = (ScratchArena::for_k(K), Vec::new());
        let mut i = 0usize;
        b.iter(|| {
            let rv = &workloads[i % workloads.len()];
            i += 1;
            bfa(&conv, rv, &mask, &mut scratch, &mut out)
        });
    });
    group.bench_function("explicit_graph", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let g = &graphs[i % graphs.len()];
            i += 1;
            black_box(break_fa_matching(g).size())
        });
    });
    group.bench_function("explicit_graph_incl_build", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let rv = &workloads[i % workloads.len()];
            i += 1;
            let g = RequestGraph::new(conv, rv).expect("valid");
            black_box(break_fa_matching(&g).size())
        });
    });
    group.finish();
}

fn bench_hardware_vs_software(c: &mut Criterion) {
    let conv = Conversion::symmetric_circular(K, 3).expect("valid");
    let mask = ChannelMask::all_free(K);
    let workloads = inputs();
    let unit = BreakFaUnit::new(conv).expect("circular");
    let mut group = c.benchmark_group("ablation_hardware");
    group.bench_function("software_bfa", |b| {
        let (mut scratch, mut out) = (ScratchArena::for_k(K), Vec::new());
        let mut i = 0usize;
        b.iter(|| {
            let rv = &workloads[i % workloads.len()];
            i += 1;
            bfa(&conv, rv, &mask, &mut scratch, &mut out)
        });
    });
    group.bench_function("hardware_model_bfa", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let rv = &workloads[i % workloads.len()];
            i += 1;
            black_box(unit.run(rv, &mask).expect("runs"))
        });
    });
    group.finish();
}

fn bench_exact_vs_approx(c: &mut Criterion) {
    let mask = ChannelMask::all_free(K);
    let workloads = inputs();
    let mut group = c.benchmark_group("ablation_policy");
    for d in [3usize, 9, 33] {
        let conv = Conversion::symmetric_circular(K, d).expect("valid");
        group.bench_with_input(BenchmarkId::new("exact_d", d), &workloads, |b, ws| {
            let (mut scratch, mut out) = (ScratchArena::for_k(K), Vec::new());
            let mut i = 0usize;
            b.iter(|| {
                let rv = &ws[i % ws.len()];
                i += 1;
                bfa(&conv, rv, &mask, &mut scratch, &mut out)
            });
        });
        group.bench_with_input(BenchmarkId::new("approx_d", d), &workloads, |b, ws| {
            let (mut scratch, mut out) = (ScratchArena::for_k(K), Vec::new());
            let mut i = 0usize;
            b.iter(|| {
                let rv = &ws[i % ws.len()];
                i += 1;
                approx_schedule_into(&conv, rv, &mask, &mut scratch, &mut out).expect("schedules");
                black_box(out.len())
            });
        });
    }
    group.finish();
}

criterion_group!(
    ablation_benches,
    bench_break_choice,
    bench_representation,
    bench_hardware_vs_software,
    bench_exact_vs_approx
);
criterion_main!(ablation_benches);
