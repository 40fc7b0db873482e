//! Ablation C: order-maintenance list throughput — append vs hotspot
//! insertion (relabel-heavy) vs random positions, plus query cost. The OM
//! lists underlie every SP-Order reachability query, so these constants
//! bound the reachability component's cost (Figure 1's `reach.` column).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stint_om::OmList;

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("om/insert");
    for &n in &[1_000usize, 10_000, 100_000] {
        g.bench_with_input(BenchmarkId::new("append", n), &n, |b, &n| {
            b.iter(|| {
                let mut l = OmList::with_capacity(n);
                let mut cur = l.insert_first();
                for _ in 0..n {
                    cur = l.insert_after(cur);
                }
                black_box(l.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("hotspot", n), &n, |b, &n| {
            b.iter(|| {
                let mut l = OmList::with_capacity(n);
                let head = l.insert_first();
                for _ in 0..n {
                    l.insert_after(head);
                }
                black_box(l.relabels())
            })
        });
        g.bench_with_input(BenchmarkId::new("random", n), &n, |b, &n| {
            b.iter(|| {
                let mut l = OmList::with_capacity(n);
                let mut handles = vec![l.insert_first()];
                let mut state: u64 = 0x243F6A8885A308D3;
                for _ in 0..n {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let at = handles[(state as usize) % handles.len()];
                    handles.push(l.insert_after(at));
                }
                black_box(l.len())
            })
        });
    }
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut l = OmList::new();
    let mut handles = vec![l.insert_first()];
    for _ in 0..100_000 {
        handles.push(l.insert_after(*handles.last().unwrap()));
    }
    c.bench_function("om/query", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = i.wrapping_add(12_345) % handles.len();
            let j = (i * 7 + 13) % handles.len();
            black_box(l.precedes(handles[i], handles[j]))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_insert, bench_query
}
criterion_main!(benches);
