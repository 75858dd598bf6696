//! E7 — the paper's complexity table, measured.
//!
//! | algorithm | claimed | measured here |
//! |-----------|---------|----------------|
//! | First Available | `O(k)` | `fa/k=…` series |
//! | Break and First Available | `O(dk)` | `bfa/k=…` and `bfa_degree/d=…` series |
//! | single-break approximation | `O(k)` | `approx/k=…` series |
//! | Hopcroft–Karp baseline | `O(N^1.5 k^1.5 d)` | `hopcroft_karp/k=…` series |
//! | (independence of N) | per-fiber cost flat in N | `independence_n/N=…` series |
//!
//! Run `cargo bench -p wdm-bench --bench scheduler_scaling`; the series
//! growth rates (linear in k for FA/BFA, superlinear for HK, flat in N)
//! reproduce the paper's Table-less complexity claims.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wdm_bench::{bench_rng, random_request_vector};
use wdm_core::algorithms::{
    approx_schedule_into, break_fa_schedule_into, fa_schedule_into, hopcroft_karp, Assignment,
    BreakChoice,
};
use wdm_core::{ChannelMask, Conversion, Error, RequestGraph, RequestVector, ScratchArena};

const LOAD: f64 = 0.8;
const N_FIBERS: usize = 16;

fn workloads(k: usize, n: usize, count: usize) -> Vec<RequestVector> {
    let mut rng = bench_rng(0xC0FFEE ^ k as u64 ^ (n as u64) << 32);
    (0..count).map(|_| random_request_vector(&mut rng, n, k, LOAD)).collect()
}

/// Times `schedule` over `inputs` round-robin through one reused arena, as
/// the production slot loop runs it.
fn bench_slots<T>(
    b: &mut criterion::Bencher,
    inputs: &[RequestVector],
    mut schedule: impl FnMut(
        &RequestVector,
        &mut ScratchArena,
        &mut Vec<Assignment>,
    ) -> Result<T, Error>,
) {
    let (mut scratch, mut out) = (ScratchArena::new(), Vec::new());
    let mut i = 0usize;
    b.iter(|| {
        let rv = &inputs[i % inputs.len()];
        i += 1;
        schedule(rv, &mut scratch, &mut out).expect("schedules");
        black_box(out.len())
    });
}

fn bench_fa(c: &mut Criterion) {
    let mut group = c.benchmark_group("fa");
    for k in [8usize, 32, 128, 512] {
        let conv = Conversion::non_circular(k, 1, 1).expect("valid");
        let mask = ChannelMask::all_free(k);
        let inputs = workloads(k, N_FIBERS, 64);
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("k", k), &inputs, |b, inputs| {
            bench_slots(b, inputs, |rv, s, o| fa_schedule_into(&conv, rv, &mask, s, o));
        });
    }
    group.finish();
}

fn bench_bfa(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfa");
    for k in [8usize, 32, 128, 512] {
        let conv = Conversion::symmetric_circular(k, 3).expect("valid");
        let mask = ChannelMask::all_free(k);
        let inputs = workloads(k, N_FIBERS, 64);
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("k", k), &inputs, |b, inputs| {
            bench_slots(b, inputs, |rv, s, o| {
                break_fa_schedule_into(&conv, rv, &mask, BreakChoice::default(), s, o)
            });
        });
    }
    group.finish();

    // O(dk): linear growth in the conversion degree at fixed k.
    let mut group = c.benchmark_group("bfa_degree");
    let k = 128;
    for d in [3usize, 5, 9, 17, 33] {
        let conv = Conversion::symmetric_circular(k, d).expect("valid");
        let mask = ChannelMask::all_free(k);
        let inputs = workloads(k, N_FIBERS, 64);
        group.bench_with_input(BenchmarkId::new("d", d), &inputs, |b, inputs| {
            bench_slots(b, inputs, |rv, s, o| {
                break_fa_schedule_into(&conv, rv, &mask, BreakChoice::default(), s, o)
            });
        });
    }
    group.finish();
}

fn bench_approx(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx");
    for k in [8usize, 32, 128, 512] {
        let conv = Conversion::symmetric_circular(k, 3).expect("valid");
        let mask = ChannelMask::all_free(k);
        let inputs = workloads(k, N_FIBERS, 64);
        group.bench_with_input(BenchmarkId::new("k", k), &inputs, |b, inputs| {
            bench_slots(b, inputs, |rv, s, o| approx_schedule_into(&conv, rv, &mask, s, o));
        });
    }
    group.finish();
}

fn bench_hopcroft_karp(c: &mut Criterion) {
    // Matching only, on prebuilt graphs (flatters the baseline).
    let mut group = c.benchmark_group("hopcroft_karp");
    for k in [8usize, 32, 128] {
        let conv = Conversion::symmetric_circular(k, 3).expect("valid");
        let inputs: Vec<RequestGraph> = workloads(k, N_FIBERS, 16)
            .iter()
            .map(|rv| RequestGraph::new(conv, rv).expect("valid graph"))
            .collect();
        group.bench_with_input(BenchmarkId::new("k", k), &inputs, |b, inputs| {
            let mut i = 0usize;
            b.iter(|| {
                let g = &inputs[i % inputs.len()];
                i += 1;
                black_box(hopcroft_karp(g).size())
            });
        });
    }
    group.finish();

    // The baseline as it would actually be deployed: build the explicit
    // request graph from the slot's requests, then match.
    let mut group = c.benchmark_group("hopcroft_karp_incl_build");
    for k in [8usize, 32, 128] {
        let conv = Conversion::symmetric_circular(k, 3).expect("valid");
        let inputs = workloads(k, N_FIBERS, 16);
        group.bench_with_input(BenchmarkId::new("k", k), &inputs, |b, inputs| {
            let mut i = 0usize;
            b.iter(|| {
                let rv = &inputs[i % inputs.len()];
                i += 1;
                let g = RequestGraph::new(conv, rv).expect("valid graph");
                black_box(hopcroft_karp(&g).size())
            });
        });
    }
    group.finish();

    // Worst case: all N·k input channels request this fiber. The compact
    // BFA stays O(dk); the baseline pays for N·k left vertices.
    let mut group = c.benchmark_group("hotspot_baseline_vs_bfa");
    let k = 64;
    let conv = Conversion::symmetric_circular(k, 3).expect("valid");
    let mask = ChannelMask::all_free(k);
    for n in [4usize, 16, 64] {
        let rv = RequestVector::from_counts(vec![n; k]).expect("valid");
        group.bench_with_input(BenchmarkId::new("hk_N", n), &rv, |b, rv| {
            b.iter(|| {
                let g = RequestGraph::new(conv, rv).expect("valid graph");
                black_box(hopcroft_karp(&g).size())
            });
        });
        group.bench_with_input(BenchmarkId::new("bfa_N", n), &rv, |b, rv| {
            bench_slots(b, std::slice::from_ref(rv), |rv, s, o| {
                break_fa_schedule_into(&conv, rv, &mask, BreakChoice::default(), s, o)
            });
        });
    }
    group.finish();
}

/// The headline claim: per-fiber scheduling cost is independent of the
/// interconnect size N. The offered request vector grows with N (more
/// fibers feed the hot output), yet BFA's time stays flat because counts
/// are clamped at d.
fn bench_independence_of_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("independence_n");
    let k = 32;
    let conv = Conversion::symmetric_circular(k, 3).expect("valid");
    let mask = ChannelMask::all_free(k);
    for n in [4usize, 16, 64, 256] {
        let inputs = workloads(k, n, 32);
        group.bench_with_input(BenchmarkId::new("N", n), &inputs, |b, inputs| {
            bench_slots(b, inputs, |rv, s, o| {
                break_fa_schedule_into(&conv, rv, &mask, BreakChoice::default(), s, o)
            });
        });
    }
    group.finish();

    // Worst case: every input channel of every fiber requests this output
    // fiber (N·k requests). Per-wavelength counts are clamped at d inside
    // the scheduler, so time stays flat in N.
    let mut group = c.benchmark_group("independence_n_hotspot");
    for n in [4usize, 16, 64, 256] {
        let rv = RequestVector::from_counts(vec![n; k]).expect("valid");
        group.bench_with_input(BenchmarkId::new("N", n), &rv, |b, rv| {
            bench_slots(b, std::slice::from_ref(rv), |rv, s, o| {
                break_fa_schedule_into(&conv, rv, &mask, BreakChoice::default(), s, o)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fa,
    bench_bfa,
    bench_approx,
    bench_hopcroft_karp,
    bench_independence_of_n
);
criterion_main!(benches);
