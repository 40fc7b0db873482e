//! Differential battery for the sharded batch detector: on generated
//! programs and recorded suite kernels, batch detection over `K` address
//! shards — in memory, from a v1 file or streamed from v2 at any chunk size,
//! on any worker count and steal seed — and online detection report
//! sequential STINT's races, so the canonical merged rendering is
//! byte-identical across all of them (the harness's batch and online tiers).

use proptest::prelude::*;
use stint_repro::batchdet::{
    batch_detect, batch_detect_any, batch_detect_on, new_pool, BatchConfig,
};
use stint_repro::{PortableTrace, DEFAULT_CHUNK_EVENTS};
use stint_spdag::{Access, Func, Stmt};

mod common;
use common::{access, encode, hook_trace, multi_group, one_group, Row, Src};
use common::{batch, check, check_kernel, func_strategy, func_strategy_over, online, Program};

const SOURCES: [Src; 4] = [Src::Mem, Src::V2(1), Src::V2(16), Src::V2(4096)];

/// K ∈ {1, 2, 7} × workers ∈ {1, 2, 4} × three steal seeds × the sources.
fn schedules(hooks: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for workers in [1, 2, 4] {
        for seed in [0, 0xDEAD_BEEF, 42] {
            for k in [1, 2, 7] {
                rows.extend(SOURCES.map(|src| batch(hooks, src, k, workers, seed)));
            }
        }
    }
    rows
}

/// The schedules on recorded suite kernels, one clean and one racy, whose
/// hook streams every source hands over in several batches; then K ∈ {1, 2,
/// 4, 8} in memory and streamed, and online at W ∈ {1, 2, 4}.
#[test]
fn pipeline_sources_and_schedules_agree_on_suite_kernels() {
    for bench in ["sort", "buggy-mmul"] {
        let mut rows = schedules(true);
        for k in [1, 2, 4, 8] {
            rows.extend(
                [Src::Mem, Src::V2(DEFAULT_CHUNK_EVENTS)].map(|src| batch(true, src, k, 2, 0)),
            );
        }
        rows.extend([1, 2, 4].map(|workers| online(workers, 0, 4096)));
        check_kernel(bench, &rows).unwrap_or_else(|e| panic!("{bench}: {e:?}"));
    }
}

/// What crosses the tier boundary is the compact form — a strand's
/// intervals, clipped at the shard cuts: K ∈ {1, 2, 3, 7} × the sources, and
/// online at W ∈ {1, 2, 4} × `chunk_events` ∈ {1, 3, 4096}. Its verdict must
/// be the per-word expansion's (one plain hook a word).
fn routing() -> Vec<Row> {
    let mut rows = Vec::new();
    for k in [1, 2, 3, 7] {
        rows.extend(SOURCES.map(|src| batch(false, src, k, 2, 0)));
    }
    for workers in [1, 2, 4] {
        rows.extend([1, 3, 4096].map(|chunk| online(workers, 0, chunk)));
    }
    rows
}

/// The directed case: the intervals of two racing strands straddle the cut
/// of a two-shard plan (and those of wider plans), and a free in mid-strand
/// splits one strand's flush.
#[test]
fn interval_straddling_a_shard_cut_matches_its_expansion() {
    let ranged = |write, word, len| access(write, word, len, true);
    let f = Func(vec![
        Stmt::Spawn(Func(vec![Stmt::Compute(vec![
            ranged(true, 100, 300),
            ranged(false, 0, 500),
        ])])),
        Stmt::Compute(vec![ranged(true, 40, 120), ranged(true, 350, 100)]),
        Stmt::Sync,
    ]);
    for frees in [0, 0b10] {
        check(&f, frees, &routing()).unwrap_or_else(|e| panic!("frees={frees}: {e:?}"));
    }
    let pt = PortableTrace::record(&mut Program::new(&f, 0, false));
    let mut cfg = BatchConfig::default();
    (cfg.shards, cfg.workers) = (2, 1);
    let out = batch_detect(&pt, &cfg).expect("clean batch run");
    let cut = out.shards[0].word_hi;
    assert!(40 < cut && cut < 160, "no cut inside [40, 160): {cut}");
    assert!(!out.merged.is_race_free());
}

/// Short accesses over a few dozen words, plain more often than ranged, so
/// one strand's hooks often touch and repeat a size.
fn dense() -> BoxedStrategy<Access> {
    let shape = (any::<bool>(), 0u64..24, 1u64..4, 0u8..4);
    let to = |(write, word, len, r): (bool, u64, u64, u8)| access(write, word, len, r == 0);
    shape.prop_map(to).boxed()
}

/// Batch detection of the hook stream at K ∈ {1, 2, 3, 7} from every source.
fn hook_sources() -> Vec<Row> {
    let sources = [Src::Mem, Src::V1, Src::V2(1), Src::V2(16), Src::V2(4096)];
    [1, 2, 3, 7]
        .iter()
        .flat_map(|&k| sources.map(|src| batch(true, src, k, 2, 0)))
        .collect()
}

/// Every source hands the batch front the runs the v2 encoder writes: two
/// contiguous plain loads of one strand are one wholesale range from memory,
/// a v1 file and every v2 chunking alike, so the range loaded next falls back
/// to the coalescer in each, and each shard gets the same units. The
/// three-shard plan cuts inside the second load.
#[test]
fn contiguous_plain_hooks_route_alike_from_every_source() {
    let plain = |word, len| access(false, word, len, false);
    let f = Func(vec![Stmt::Compute(vec![
        plain(20, 2),
        plain(22, 2),
        access(false, 24, 16, true),
    ])]);
    let hooks = hook_trace(&mut Program::new(&f, 0, false));
    let pool = new_pool(2, 0);
    for k in [1, 2, 3, 7] {
        let mut cfg = BatchConfig::default();
        (cfg.shards, cfg.workers) = (k, 2);
        let work = |src| {
            let out = match src {
                Src::Mem => batch_detect_on(&pool, &hooks, &cfg),
                _ => batch_detect_any(&pool, &mut &encode(&hooks, src).0[..], &cfg),
            };
            let shards = out.expect("clean batch run").shards;
            shards.iter().map(|s| s.events).collect::<Vec<_>>()
        };
        let mem = work(Src::Mem);
        for src in [Src::V1, Src::V2(1), Src::V2(16), Src::V2(4096)] {
            assert_eq!(work(src), mem, "{src:?}, K={k}");
        }
    }
    check(&f, 0, &hook_sources()).unwrap_or_else(|e| panic!("{e:?}"));
}

/// Two parallel writers overlapping across a wide range, then a serial read
/// of the first half that frees it (compute 2) and a one-word race in the
/// freed range: range clipping, strand-end skipping and tombstones.
fn wide_racy(rows: &[Row]) {
    let compute = |a| Stmt::Compute(vec![a]);
    let f = Func(vec![
        Stmt::Spawn(Func(vec![Stmt::Compute(vec![
            access(true, 0x40, 16, true),
            access(false, 0x80, 2, false),
        ])])),
        compute(access(true, 0x48, 16, true)),
        Stmt::Sync,
        compute(access(false, 0x40, 8, true)),
        Stmt::Spawn(Func(vec![compute(access(true, 0x41, 1, false))])),
        compute(access(false, 0x41, 1, false)),
        Stmt::Sync,
    ]);
    let words = check(&f, 0b100, rows).unwrap_or_else(|e| panic!("{e:?}"));
    assert!(!words.is_empty());
}

#[test]
fn render_is_invariant_in_shards_workers_and_seed() {
    let shapes = [
        (1, 1, 0),
        (2, 1, 0),
        (4, 3, 0),
        (4, 3, 0xDEAD_BEEF),
        (9, 2, 7),
    ];
    wide_racy(&shapes.map(|(k, w, seed)| batch(false, Src::Mem, k, w, seed)));
}

#[test]
fn online_render_matches_batch_render() {
    wide_racy(&[batch(true, Src::Mem, 4, 2, 0), online(2, 0, 16)]);
}

/// Witness capture is merge-time and span-table-driven, exactly like batch:
/// the same program's hook stream batch-detected with witnesses renders the
/// same bytes.
#[test]
fn witnessed_online_regions_verify() {
    wide_racy(&[batch(true, Src::Mem, 4, 2, 0), online(2, 0, 8)].map(Row::witnessed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn interval_routing_matches_expansion_one_group(
        f in func_strategy_over(3, one_group()),
        frees in any::<u64>(),
    ) {
        check(&f, frees, &routing())?;
    }

    #[test]
    fn interval_routing_matches_expansion_multi_group(
        f in func_strategy_over(3, multi_group()),
        frees in any::<u64>(),
    ) {
        check(&f, frees, &routing())?;
    }

    #[test]
    fn interval_routing_matches_expansion_mixed(
        f in func_strategy_over(3, prop_oneof![one_group(), multi_group()].boxed()),
        frees in any::<u64>(),
    ) {
        check(&f, frees, &routing())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The hook-level twins of the generated rows: every source hands the
    /// batch front one run shape, so no streamed row's shard works more
    /// than the in-memory row's.
    #[test]
    fn interval_routing_of_hooks_matches_expansion(
        f in func_strategy_over(3, prop_oneof![one_group(), multi_group()].boxed()),
        frees in any::<u64>(),
    ) {
        check(&f, frees, &hook_sources())?;
    }

    #[test]
    fn pipeline_sources_and_schedules_agree_on_hooks(f in func_strategy(3)) {
        check(&f, 0, &schedules(true))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// The wide hook-level battery (≈0.6 s in release; `scripts/perfgate.sh`
    /// runs it): 600 programs whose strands' hooks often touch, from every
    /// source at K ∈ {1, 2, 3, 7}.
    #[test]
    #[ignore]
    fn hook_streams_route_alike_from_every_source_wide(f in func_strategy_over(3, dense())) {
        check(&f, 0, &hook_sources())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_batch_matches_sequential_for_every_k(f in func_strategy(3)) {
        check(&f, 0, &[1, 2, 7, 16].map(|k| batch(false, Src::Mem, k, 2, 0)))?;
    }

    /// Every scheduling degree of freedom: shard count, worker count, steal
    /// seed.
    #[test]
    fn merged_render_is_metamorphically_invariant(f in func_strategy(2)) {
        let shapes = [(1, 1, 0), (2, 1, 0), (4, 4, 0), (4, 4, 0xDEAD_BEEF), (7, 2, 0xC0FFEE), (16, 3, 42)];
        check(&f, 0, &shapes.map(|(k, w, seed)| batch(false, Src::Mem, k, w, seed)))?;
    }

    /// The full pipeline a user runs: record → save → load → batch.
    #[test]
    fn save_load_then_batch_agrees_with_in_memory_batch(f in func_strategy(2)) {
        check(&f, 0, &[Src::Mem, Src::V1].map(|src| batch(false, src, 4, 2, 0)))?;
    }

    /// Both encodings, one verdict, at every chunk size down to one event.
    #[test]
    fn chunked_compressed_batch_matches_in_memory_batch(
        f in func_strategy(3),
        chunk_events in prop_oneof![Just(1usize), 2usize..48, Just(4096usize)],
        k in 1usize..8,
    ) {
        check(&f, 0, &[Src::Mem, Src::V2(chunk_events)].map(|src| batch(false, src, k, 2, 0)))?;
    }

    #[test]
    fn pipeline_sources_and_schedules_agree(f in func_strategy(3)) {
        check(&f, 0, &schedules(false))?;
    }

    /// A recorded trace stores each strand's runs, not its hooks: loaded
    /// from v1, streamed from v2 or served, it reports what the hook stream
    /// of the same run reports.
    #[test]
    fn recorded_units_render_as_the_hook_stream(f in func_strategy(3)) {
        let v2 = Src::V2(DEFAULT_CHUNK_EVENTS);
        let rows = [1, 2, 7, 16].map(|k| [
            batch(true, Src::Mem, k, 2, 0),
            batch(false, Src::V1, k, 2, 0),
            batch(false, v2, k, 2, 0),
            Row::Serve(Src::V1, k),
            Row::Serve(v2, k),
        ]);
        check(&f, 0, rows.as_flattened())?;
    }
}
