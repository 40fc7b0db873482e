//! Ablation E: pure detection cost via trace replay. Each benchmark's
//! instrumentation stream is recorded once; replaying it into the different
//! detectors measures access-history + reachability-query cost with the
//! program's own computation excluded — the clean-room version of the
//! paper's Figure 7 timers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stint::{
    replay, CompRtsDetector, RaceReport, StintDetector, StintFlatDetector, VanillaDetector,
};
use stint_suite::{Scale, Workload};

fn bench_replay(c: &mut Criterion) {
    for name in ["sort", "mmul", "fft", "heat"] {
        let mut w = Workload::by_name(name, Scale::Test);
        let (trace, reach) = stint::record(&mut w);
        let mut g = c.benchmark_group(format!("replay/{name}"));
        g.sample_size(10);
        let n = trace.len() as u64;
        g.throughput(criterion::Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("vanilla", n), &trace, |b, t| {
            b.iter(|| {
                let d = replay(t, &reach, VanillaDetector::new(false, RaceReport::new(16)));
                black_box(d.stats.hash_ops)
            })
        });
        g.bench_with_input(BenchmarkId::new("compiler", n), &trace, |b, t| {
            b.iter(|| {
                let d = replay(t, &reach, VanillaDetector::new(true, RaceReport::new(16)));
                black_box(d.stats.hash_ops)
            })
        });
        g.bench_with_input(BenchmarkId::new("comp+rts", n), &trace, |b, t| {
            b.iter(|| {
                let d = replay(t, &reach, CompRtsDetector::new(RaceReport::new(16)));
                black_box(d.stats.hash_ops)
            })
        });
        g.bench_with_input(BenchmarkId::new("stint", n), &trace, |b, t| {
            b.iter(|| {
                let d = replay(t, &reach, StintDetector::new(RaceReport::new(16)));
                black_box(d.stats.treap.ops)
            })
        });
        g.bench_with_input(BenchmarkId::new("stint_btree", n), &trace, |b, t| {
            b.iter(|| {
                let d = replay(t, &reach, StintFlatDetector::new_flat(RaceReport::new(16)));
                black_box(d.stats.treap.ops)
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
