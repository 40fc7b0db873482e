//! Ablation A: interval-store implementations head to head — the paper's
//! treap vs the `BTreeMap` flat store ("any balanced BST would work") — on
//! the workload shapes the detectors generate: disjoint streams (deep
//! trees), replacing streams (serial reuse), covering writes
//! (REMOVEOVERLAP-heavy), and strand-flush batches into a large store (the
//! bulk entry points: the treap splices a batch through one split–join cut,
//! a `BTreeMap` has no such seam and pays a full descent per run).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stint_ivtree::{FlatStore, Interval, IntervalStore, Treap};

/// Deterministic op stream: (write?, start, len, who).
fn stream(n: usize, space: u64, max_len: u64) -> Vec<(bool, u64, u64, u32)> {
    let mut state: u64 = 0x9E3779B97F4A7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            (
                next() % 2 == 0,
                next() % space,
                next() % max_len + 1,
                (next() % 256) as u32,
            )
        })
        .collect()
}

fn drive<S: IntervalStore<u32>>(store: &mut S, ops: &[(bool, u64, u64, u32)]) -> u64 {
    let mut conflicts = 0u64;
    for &(w, s, l, who) in ops {
        let iv = Interval::new(s, s + l, who);
        if w {
            store.insert_write(iv, |_, _, _| conflicts += 1);
        } else {
            store.insert_read(iv, |old| who < old);
        }
    }
    conflicts
}

fn bench_stores(c: &mut Criterion) {
    for (label, space, max_len) in [
        ("dense", 1u64 << 10, 64u64),
        ("sparse", 1 << 24, 64),
        ("covering", 1 << 8, 128),
    ] {
        let ops = stream(20_000, space, max_len);
        let mut g = c.benchmark_group(format!("ivtree/{label}"));
        g.bench_with_input(BenchmarkId::new("treap", ops.len()), &ops, |b, ops| {
            b.iter(|| {
                let mut t: Treap<u32> = Treap::with_seed(42);
                black_box(drive(&mut t, ops))
            })
        });
        g.bench_with_input(BenchmarkId::new("btreemap", ops.len()), &ops, |b, ops| {
            b.iter(|| {
                let mut t: FlatStore<u32> = FlatStore::new();
                black_box(drive(&mut t, ops))
            })
        });
        g.finish();
    }
}

/// The access pattern STINT loves: each "strand" overwrites the same block
/// (serial reuse) — the tree stays tiny regardless of op count.
fn bench_serial_reuse(c: &mut Criterion) {
    c.bench_function("ivtree/serial_reuse/treap", |b| {
        b.iter(|| {
            let mut t: Treap<u32> = Treap::with_seed(7);
            for i in 0..10_000u32 {
                t.insert_write(Interval::new(0, 1024, i), |_, _, _| {});
            }
            black_box(t.len())
        })
    });
}

/// Query-only walks at various tree sizes (the O(h + k) of Lemma 4.2).
fn bench_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("ivtree/query");
    for &n in &[1_000u64, 10_000, 100_000] {
        let mut t: Treap<u32> = Treap::with_seed(3);
        for i in 0..n {
            t.insert_write(
                Interval::new(i * 16, i * 16 + 8, (i % 64) as u32),
                |_, _, _| {},
            );
        }
        g.bench_with_input(BenchmarkId::new("hit", n), &n, |b, &n| {
            let mut k = 0u64;
            b.iter(|| {
                k = (k + 7919) % n;
                let mut hits = 0u32;
                t.query_overlaps(k * 16, k * 16 + 40, |_, _, _| hits += 1);
                black_box(hits)
            })
        });
    }
    g.finish();
}

/// 128-run sorted batches, one per "strand", into a store of 0.5M one-word
/// intervals (4096 strands x 128 runs, one stored word per 4-word cell of a
/// strand's 512-word region). `in_cover`: each batch lands inside its
/// strand's region, on words still free (the second round of the repo
/// benchmark's scatter workloads). `append`: every batch lies beyond
/// everything stored. One iteration is 256 batches on addresses no earlier
/// iteration of the same sample touched. `rewrite`: the `in_cover` layout on
/// the word already stored in every cell, so each run meets its own bounds
/// (write case D, nothing removed). `reread`: see the helper.
fn bench_batch(c: &mut Criterion) {
    const STRANDS: u64 = 4096;
    fn flush<S: IntervalStore<u32>>(store: &mut S, buf: &mut Vec<(u64, u64)>, s: u64, word: u64) {
        buf.clear();
        buf.extend((0..128).map(|i| (s * 512 + i * 4 + word, s * 512 + i * 4 + word + 1)));
        store.insert_writes_for(s as u32, buf, |_, _, _| {});
    }
    fn run<S: IntervalStore<u32>>(b: &mut criterion::Bencher, mut store: S, label: &str) {
        let mut buf = Vec::new();
        let base = 1;
        for s in 0..STRANDS {
            flush(&mut store, &mut buf, base + s, 0);
        }
        // 2^19 nodes fill the treap's arena to the brim; one more batch (in
        // front, so `append` stays beyond everything) doubles it here, where
        // no measured iteration pays for the 16 MiB `Vec` growth. The room
        // lasts 15 iterations.
        flush(&mut store, &mut buf, 0, 0);
        let mut round = 0;
        b.iter(|| {
            // In-cover rounds walk the 16 blocks of 256 strands, then move on
            // to the next free word of every cell; rewrite rounds stay on
            // the stored one.
            let block = base + round % 16 * 256;
            let (first, word) = match label {
                "append" => (base + STRANDS + round * 256, 0),
                "in_cover" => (block, 1 + round / 16 % 3),
                _ => (block, 0),
            };
            round += 1;
            for s in first..first + 256 {
                flush(&mut store, &mut buf, s, word);
            }
            black_box(store.len())
        })
    }
    /// `reread`: the read side once every word has its reader (the repo
    /// benchmark's `scatter_reads` after its first touches). 4096 strands
    /// each read 115 sorted words of a saturated 32,768-word table of
    /// one-word readers; the left-of relation replaces about half of the
    /// stored readers a round meets, so every run finds its own bounds
    /// stored and changes the accessor or nothing. One iteration is one
    /// round, 4096 batches.
    fn reread<S: IntervalStore<u32>>(b: &mut criterion::Bencher, mut store: S) {
        let table: Vec<(u64, u64)> = (0..1 << 15).map(|w| (w, w + 1)).collect();
        store.insert_reads_for(0, &table, |_| unreachable!("first touches"));
        let (mut buf, mut round) = (Vec::new(), 0u32);
        b.iter(|| {
            round += 1;
            for s in 0..STRANDS {
                // One word out of each 284-word cell, sorted by construction.
                buf.clear();
                buf.extend(
                    (0..115)
                        .map(|i| i * 284 + (s * 131 + i * 17) % 284)
                        .map(|w| (w, w + 1)),
                );
                let who = round.wrapping_mul(STRANDS as u32) + s as u32;
                store.insert_reads_for(who, &buf, |old| {
                    (who.wrapping_mul(0x9E37_79B1) ^ old.wrapping_mul(0x85EB_CA6B)) >> 31 == 0
                });
            }
            black_box(store.len())
        })
    }
    let mut g = c.benchmark_group("ivtree/batch");
    g.bench_function("treap/reread", |b| reread(b, Treap::with_seed(42)));
    g.bench_function("btreemap/reread", |b| reread(b, FlatStore::new()));
    for label in ["in_cover", "append", "rewrite"] {
        g.bench_function(&format!("treap/{label}"), |b| {
            run(b, Treap::with_seed(42), label)
        });
        g.bench_function(&format!("btreemap/{label}"), |b| {
            run(b, FlatStore::new(), label)
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stores, bench_serial_reuse, bench_query, bench_batch
}
criterion_main!(benches);
