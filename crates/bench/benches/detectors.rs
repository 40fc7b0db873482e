//! Ablation D: end-to-end detector comparison on small instances of three
//! representative benchmarks — sort (STINT's best case in the paper), mmul
//! (parity) and fft (STINT's adverse case) — across all variants plus the
//! BTreeMap-backed STINT.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stint::Variant;
use stint_suite::{fft::Fft, mmul::Mmul, sort::Sort};

fn run<P: stint::CilkProgram>(p: &mut P, v: Variant) -> u64 {
    let o = stint::detect(p, v);
    o.stats.total_intervals()
}

const VARIANTS: [Variant; 5] = [
    Variant::Vanilla,
    Variant::Compiler,
    Variant::CompRts,
    Variant::Stint,
    Variant::StintFlat,
];

fn bench_detectors(c: &mut Criterion) {
    let mut g = c.benchmark_group("detectors");
    g.sample_size(10);
    for v in VARIANTS {
        g.bench_with_input(BenchmarkId::new("sort_20k", v.name()), &v, |b, &v| {
            b.iter(|| black_box(run(&mut Sort::new(20_000, 512, 3), v)))
        });
        g.bench_with_input(BenchmarkId::new("mmul_64", v.name()), &v, |b, &v| {
            b.iter(|| black_box(run(&mut Mmul::new(64, 16, 1), v)))
        });
        g.bench_with_input(BenchmarkId::new("fft_4k", v.name()), &v, |b, &v| {
            b.iter(|| black_box(run(&mut Fft::new(4096, 8, 4), v)))
        });
    }
    g.finish();
}

fn bench_baseline_vs_reach(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor");
    g.sample_size(10);
    g.bench_function("sort_20k/baseline", |b| {
        b.iter(|| stint::run_baseline(&mut Sort::new(20_000, 512, 3)))
    });
    g.bench_function("sort_20k/reach_only", |b| {
        b.iter(|| stint::run_reach_only(&mut Sort::new(20_000, 512, 3)))
    });
    g.finish();
}

criterion_group!(benches, bench_detectors, bench_baseline_vs_reach);
criterion_main!(benches);
