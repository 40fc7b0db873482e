//! Ablation B: shadow-memory substrates — per-word vs ranged access to the
//! word shadow (the vanilla/compiler distinction), and the bit-shadow
//! coalescer's set/extract cycle across access shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stint_shadow::{BitShadow, WordShadow};

fn bench_word_shadow(c: &mut Criterion) {
    let mut g = c.benchmark_group("shadow/word");
    for &n in &[4_096u64, 65_536] {
        g.bench_with_input(BenchmarkId::new("per_word", n), &n, |b, &n| {
            b.iter(|| {
                let mut s = WordShadow::new();
                for w in 0..n {
                    s.entry_mut(w).writer = (w % 97) as u32;
                }
                black_box(s.ops)
            })
        });
        g.bench_with_input(BenchmarkId::new("ranged", n), &n, |b, &n| {
            b.iter(|| {
                let mut s = WordShadow::new();
                s.process_range_on_page(0, n, |w0, entries| {
                    for (i, e) in entries.iter_mut().enumerate() {
                        e.writer = ((w0 + i as u64) % 97) as u32;
                    }
                });
                black_box(s.ops)
            })
        });
    }
    g.finish();
}

fn bench_bit_shadow(c: &mut Criterion) {
    let mut g = c.benchmark_group("shadow/bits");
    // One strand's worth of traffic: set + extract + clear.
    g.bench_function("contiguous_64k_words", |b| {
        let mut s = BitShadow::new();
        let mut out = Vec::new();
        b.iter(|| {
            for i in 0..1024u64 {
                s.set_range(i * 64, i * 64 + 64);
            }
            out.clear();
            s.extract_and_clear(&mut out);
            black_box(out.len())
        })
    });
    g.bench_function("strided_like_fft_transpose", |b| {
        // 16-byte elements every 4 KiB: many tiny intervals.
        let mut s = BitShadow::new();
        let mut out = Vec::new();
        b.iter(|| {
            for i in 0..4096u64 {
                let w = i * 1024;
                s.set_range(w, w + 4);
            }
            out.clear();
            s.extract_and_clear(&mut out);
            black_box(out.len())
        })
    });
    g.bench_function("dedup_hot_block", |b| {
        // 100 rewrites of the same 2 KiB block: dedup should keep the
        // extraction cost constant.
        let mut s = BitShadow::new();
        let mut out = Vec::new();
        b.iter(|| {
            for _ in 0..100 {
                s.set_range(0, 512);
            }
            out.clear();
            s.extract_and_clear(&mut out);
            black_box(out.len())
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_word_shadow, bench_bit_shadow
}
criterion_main!(benches);
