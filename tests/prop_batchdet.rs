//! Differential battery for the sharded batch detector: on random fork-join
//! programs, batch detection over `K` address shards must report exactly the
//! racy-word set of the sequential STINT run — for every `K` — and the
//! canonical merged rendering must be byte-identical across shard counts,
//! worker counts, and steal-schedule seeds (the metamorphic invariance the
//! deterministic merge guarantees).

use proptest::prelude::*;
use stint_repro::batchdet::{
    batch_detect, batch_detect_chunked, batch_detect_chunked_on, batch_detect_on, online_detect,
    BatchConfig, BatchOutcome, OnlineConfig, ShardOutcome,
};
use stint_repro::cilkrt::ThreadPool;
use stint_repro::suite::{Scale, Workload};
use stint_repro::{
    detect, PortableTrace, RaceReport, StintDetector, Variant, DEFAULT_CHUNK_EVENTS,
};

mod common;
use common::{func_strategy, func_strategy_over, hook_trace, multi_group, one_group, AstProgram};
use stint_repro::{Cilk, CilkProgram};
use stint_spdag::{Func, Stmt};

fn cfg(shards: usize, workers: usize, steal_seed: u64) -> BatchConfig {
    BatchConfig {
        shards,
        workers,
        steal_seed,
        ..BatchConfig::default()
    }
}

/// Bytes of a v2 stream before its first chunk: magic line, header framing
/// and header.
fn v2_header_len(buf: &[u8]) -> u64 {
    let mut cur = std::io::Cursor::new(buf);
    stint_repro::ctrace::CompressedTraceReader::open(&mut cur).expect("header parses");
    cur.position()
}

/// What must not depend on the schedule or on the source: the rendered
/// report and the merged detector statistics behind `history_mb`.
fn fingerprint(out: &BatchOutcome) -> (String, [u64; 4]) {
    let s = &out.stats;
    (
        out.merged.render(),
        [s.ah_bytes, s.coalesce_bytes, s.treap.ops, s.strands_flushed],
    )
}

/// The pipeline battery: for K in {1,2,7} x workers in {1,2,4} x three steal
/// seeds, the in-memory source and the chunked source at chunk sizes
/// {1,16,4096} all give the render of K=1/one worker, and per K the same
/// merged statistics — which batches a stream is cut into, and which worker
/// drains them, changes nothing a shard detector sees.
fn assert_sources_and_schedules_agree(pt: &PortableTrace) -> Result<(), String> {
    let encoded: Vec<(Vec<u8>, u64, u64)> = [1usize, 16, 4096]
        .iter()
        .map(|&chunk| {
            let mut buf = Vec::new();
            let written = pt
                .save_compressed(&mut buf, chunk)
                .expect("compressed save");
            let header = v2_header_len(&buf);
            (buf, header, written.chunks)
        })
        .collect();
    let mut want: Vec<Option<(String, [u64; 4])>> = vec![None; 3];
    for workers in [1usize, 2, 4] {
        for seed in [0u64, 0xDEAD_BEEF, 42] {
            let pool = ThreadPool::with_seed(workers, seed);
            for (ki, k) in [1usize, 2, 7].into_iter().enumerate() {
                let c = cfg(k, workers, seed);
                let mem = batch_detect_on(&pool, pt, &c).map_err(|e| e.to_string())?;
                let mut got = vec![("in-memory".to_string(), fingerprint(&mem))];
                for (buf, header, chunks) in &encoded {
                    let out =
                        batch_detect_chunked_on(&pool, &buf[..], &c).map_err(|e| e.to_string())?;
                    let ingest = out.ingest.expect("chunked run reports ingest stats");
                    if ingest.bytes + header != buf.len() as u64 {
                        return Err(format!(
                            "ingest.bytes {} + header {header} != file {}",
                            ingest.bytes,
                            buf.len()
                        ));
                    }
                    if ingest.chunks != *chunks {
                        return Err(format!(
                            "reader saw {} chunk(s), writer framed {chunks}",
                            ingest.chunks
                        ));
                    }
                    got.push((format!("chunked/{}B", buf.len()), fingerprint(&out)));
                }
                let first = want[ki].get_or_insert_with(|| got[0].1.clone()).clone();
                for (what, fp) in got {
                    if fp != first {
                        return Err(format!(
                            "K={k} workers={workers} seed={seed:#x} {what}: {:?} != {:?}",
                            fp.1, first.1
                        ));
                    }
                }
            }
        }
    }
    let render = |i: usize| &want[i].as_ref().expect("filled above").0;
    if render(0) != render(1) || render(0) != render(2) {
        return Err("render differs across K".into());
    }
    Ok(())
}

/// Events routed to shard detectors over the stream's length: straddler
/// clips and per-shard markers are the only duplication a partition may add.
fn work_ratio(shards: &[ShardOutcome], events: usize) -> f64 {
    shards.iter().map(|s| s.events).sum::<u64>() as f64 / events as f64
}

/// The battery on recorded suite kernels: long enough that the in-memory
/// source hands over more than one batch too, one clean and one racy. On
/// these the batch, streamed and online tiers also report sequential STINT's
/// racy words with shard work inside the bars the retired scalability
/// studies gated: 1.1x the stream at K=1 (the identity split), 1.5x at any
/// K or W (no per-shard rescan, no work multiplied by the worker count).
#[test]
fn pipeline_sources_and_schedules_agree_on_suite_kernels() {
    for bench in ["sort", "buggy-mmul"] {
        // The hook stream: thousands of events, so every source hands over
        // several batches.
        let pt = hook_trace(&mut Workload::by_name(bench, Scale::Test));
        assert!(pt.trace.len() > 4096, "{bench}: {}", pt.trace.len());
        assert_sources_and_schedules_agree(&pt).unwrap_or_else(|e| panic!("{bench}: {e}"));

        // Kernels record real heap addresses: the reference for the two
        // replayed tiers is sequential STINT over the same recorded trace,
        // for a fresh online run only the count can be compared.
        let words = pt
            .replay(StintDetector::new(RaceReport::unbounded(true)))
            .report
            .racy_words();
        let mut v2 = Vec::new();
        pt.save_compressed(&mut v2, DEFAULT_CHUNK_EVENTS)
            .expect("compressed save");
        for k in [1usize, 2, 4, 8] {
            let bar = if k == 1 { 1.1 } else { 1.5 };
            let mem = batch_detect(&pt, &cfg(k, 2, 0)).expect("in-memory run");
            let streamed = batch_detect_chunked(&v2[..], &cfg(k, 2, 0)).expect("streamed run");
            for (what, out) in [("in-memory", &mem), ("streamed", &streamed)] {
                assert!(out.degraded.is_none(), "{bench} K={k} {what}");
                assert!(out.merged.racy_words == words, "{bench} K={k} {what}");
                let ratio = work_ratio(&out.shards, pt.trace.len());
                assert!(ratio <= bar, "{bench} K={k} {what}: work {ratio:.3}x");
            }
        }
        for workers in [1usize, 2, 4] {
            let ocfg = OnlineConfig {
                workers,
                ..OnlineConfig::default()
            };
            let out = online_detect(&mut Workload::by_name(bench, Scale::Test), &ocfg)
                .expect("online run");
            assert!(out.degraded.is_none(), "{bench} W={workers}");
            assert_eq!(out.events, pt.trace.len(), "{bench} W={workers}");
            assert_eq!(
                out.merged.racy_words.len(),
                words.len(),
                "{bench} W={workers}"
            );
            let ratio = work_ratio(&out.shards, out.events);
            assert!(ratio <= 1.5, "{bench} W={workers}: online work {ratio:.3}x");
        }
    }
}

/// A generated program with frees, and its per-word expansion. Compute
/// statement `i` frees the range of its first access in mid-strand, right
/// after making it, where bit `i % 64` of `frees` is set; `per_word` feeds
/// every access one plain 4-byte hook per word instead of its one hook.
struct Expansion<'a> {
    f: &'a Func,
    frees: u64,
    per_word: bool,
}

impl Expansion<'_> {
    fn walk<C: Cilk>(&self, f: &Func, computes: &mut u32, ctx: &mut C) {
        for stmt in &f.0 {
            match stmt {
                Stmt::Compute(accs) => {
                    let free_first = self.frees >> (*computes % 64) & 1 == 1;
                    *computes += 1;
                    for (i, a) in accs.iter().enumerate() {
                        let (addr, bytes) = ((a.word * 4) as usize, (a.len * 4) as usize);
                        let hooks = if self.per_word { a.len as usize } else { 1 };
                        for h in 0..hooks {
                            let (addr, bytes) = if self.per_word {
                                (addr + 4 * h, 4)
                            } else {
                                (addr, bytes)
                            };
                            match (a.write, a.coalesced && !self.per_word) {
                                (true, true) => ctx.store_range(addr, bytes),
                                (true, false) => ctx.store(addr, bytes),
                                (false, true) => ctx.load_range(addr, bytes),
                                (false, false) => ctx.load(addr, bytes),
                            }
                        }
                        if i == 0 && free_first {
                            ctx.free(addr, bytes);
                        }
                    }
                }
                Stmt::Spawn(g) => ctx.spawn(|c| self.walk(g, computes, c)),
                Stmt::Sync => ctx.sync(),
                Stmt::Call(g) => ctx.call(|c| self.walk(g, computes, c)),
            }
        }
    }
}

impl CilkProgram for Expansion<'_> {
    fn run<C: Cilk>(&mut self, ctx: &mut C) {
        self.walk(self.f, &mut 0, ctx);
    }
}

/// The metamorphic relation of "Data Race Detection on Compressed Traces":
/// the verdict on the compact form equals the verdict on its expansion. The
/// compact form here is what crosses the tier boundary — a strand's
/// intervals, clipped at the shard cuts: its render, for K ∈ {1, 2, 3, 7} in
/// memory and streamed at chunk ∈ {1, 16, 4096}, and online at
/// W ∈ {1, 2, 4} × `chunk_events` ∈ {1, 3, 4096}, is the render of the
/// program's per-word expansion (one plain hook a word, K = 1) — which is
/// also sequential STINT's verdict on it.
fn assert_interval_routing_matches_expansion(f: &Func, frees: u64) -> Result<(), String> {
    let program = |per_word| Expansion { f, frees, per_word };
    let expanded = PortableTrace::record(&mut program(true));
    let want = batch_detect(&expanded, &cfg(1, 1, 0))
        .map_err(|e| e.to_string())?
        .merged;
    let sequential = detect(&mut program(true), Variant::Stint).report;
    if want.racy_words != sequential.racy_words() {
        return Err("the expansion's batch verdict is not sequential STINT's".into());
    }
    let want = want.render();
    let pt = PortableTrace::record(&mut program(false));
    for k in [1usize, 2, 3, 7] {
        let mem = batch_detect(&pt, &cfg(k, 2, 0)).map_err(|e| e.to_string())?;
        if mem.merged.render() != want {
            return Err(format!("K={k} in-memory differs from the expansion"));
        }
        for chunk in [1usize, 16, 4096] {
            let mut v2 = Vec::new();
            pt.save_compressed(&mut v2, chunk).expect("compressed save");
            let out = batch_detect_chunked(&v2[..], &cfg(k, 2, 0)).map_err(|e| e.to_string())?;
            if out.merged.render() != want {
                return Err(format!("K={k} chunk={chunk} differs from the expansion"));
            }
        }
    }
    for workers in [1usize, 2, 4] {
        for chunk_events in [1usize, 3, 4096] {
            let ocfg = OnlineConfig {
                shards: 3,
                workers,
                chunk_events,
                ..OnlineConfig::default()
            };
            let out = online_detect(&mut program(false), &ocfg).map_err(|e| e.to_string())?;
            if out.merged.render() != want {
                return Err(format!(
                    "online W={workers} chunk_events={chunk_events} differs from the expansion"
                ));
            }
        }
    }
    Ok(())
}

/// The directed case: the intervals of two racing strands straddle the cut
/// of a two-shard plan (and those of wider plans), and a free in mid-strand
/// splits one strand's flush.
#[test]
fn interval_straddling_a_shard_cut_matches_its_expansion() {
    let access = |write, word, len| stint_spdag::Access {
        write,
        word,
        len,
        coalesced: true,
    };
    let f = Func(vec![
        Stmt::Spawn(Func(vec![Stmt::Compute(vec![
            access(true, 100, 300),
            access(false, 0, 500),
        ])])),
        Stmt::Compute(vec![access(true, 40, 120), access(true, 350, 100)]),
        Stmt::Sync,
    ]);
    for frees in [0, 0b10] {
        assert_interval_routing_matches_expansion(&f, frees).unwrap_or_else(|e| panic!("{e}"));
    }
    let pt = PortableTrace::record(&mut Expansion {
        f: &f,
        frees: 0,
        per_word: false,
    });
    let out = batch_detect(&pt, &cfg(2, 1, 0)).expect("clean batch run");
    let cut = out.shards[0].word_hi;
    assert!(40 < cut && cut < 160, "no cut inside [40, 160): {cut}");
    assert!(!out.merged.is_race_free());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn interval_routing_matches_expansion_one_group(
        f in func_strategy_over(3, one_group()),
        frees in any::<u64>(),
    ) {
        if let Err(e) = assert_interval_routing_matches_expansion(&f, frees) {
            prop_assert!(false, "{}", e);
        }
    }

    #[test]
    fn interval_routing_matches_expansion_multi_group(
        f in func_strategy_over(3, multi_group()),
        frees in any::<u64>(),
    ) {
        if let Err(e) = assert_interval_routing_matches_expansion(&f, frees) {
            prop_assert!(false, "{}", e);
        }
    }

    #[test]
    fn interval_routing_matches_expansion_mixed(
        f in func_strategy_over(3, prop_oneof![one_group(), multi_group()].boxed()),
        frees in any::<u64>(),
    ) {
        if let Err(e) = assert_interval_routing_matches_expansion(&f, frees) {
            prop_assert!(false, "{}", e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_batch_matches_sequential_for_every_k(f in func_strategy(3)) {
        let expected = detect(&mut AstProgram(&f), Variant::Stint)
            .report
            .racy_words();
        let pt = PortableTrace::record(&mut AstProgram(&f));
        for k in [1usize, 2, 7, 16] {
            let out = batch_detect(&pt, &cfg(k, 2, 0)).expect("clean batch run");
            prop_assert!(out.degraded.is_none(), "K={} degraded", k);
            prop_assert_eq!(out.shards.len(), k);
            prop_assert_eq!(&out.merged.racy_words, &expected, "K={}", k);
            // The race verdict agrees too, not just the word set.
            prop_assert_eq!(out.merged.is_race_free(), expected.is_empty(), "K={}", k);
        }
    }

    #[test]
    fn merged_render_is_metamorphically_invariant(f in func_strategy(2)) {
        let pt = PortableTrace::record(&mut AstProgram(&f));
        let baseline = batch_detect(&pt, &cfg(1, 1, 0))
            .expect("baseline batch run")
            .merged
            .render();
        // Vary every scheduling degree of freedom: shard count, worker
        // count (1 vs N), and the steal-schedule seed (two different ones).
        for (k, w, seed) in [
            (2usize, 1usize, 0u64),
            (4, 4, 0),
            (4, 4, 0xDEAD_BEEF),
            (7, 2, 0xC0FFEE),
            (16, 3, 42),
        ] {
            let got = batch_detect(&pt, &cfg(k, w, seed))
                .expect("batch run")
                .merged
                .render();
            prop_assert_eq!(&got, &baseline, "K={} workers={} seed={}", k, w, seed);
        }
    }

    #[test]
    fn save_load_then_batch_agrees_with_in_memory_batch(f in func_strategy(2)) {
        // The full pipeline a user runs: record → save → load → batch.
        let pt = PortableTrace::record(&mut AstProgram(&f));
        let mut buf = Vec::new();
        pt.save(&mut buf).expect("save to Vec");
        let back = stint_repro::batchdet::load_trace(&buf[..]).expect("load what we saved");
        let a = batch_detect(&pt, &cfg(4, 2, 0)).expect("batch run");
        let b = batch_detect(&back, &cfg(4, 2, 0)).expect("batch run on loaded trace");
        prop_assert_eq!(a.merged.render(), b.merged.render());
    }

    #[test]
    fn chunked_compressed_batch_matches_in_memory_batch(
        f in func_strategy(3),
        chunk_events in prop_oneof![Just(1usize), 2usize..48, Just(4096usize)],
        k in 1usize..8,
    ) {
        // Both encodings, one verdict: streaming a compressed v2 trace
        // chunk-by-chunk through the partition pass must render the same
        // merged report and count the same per-shard work as the in-memory
        // batch over the original trace — for every chunk size, including
        // one event per chunk.
        let pt = PortableTrace::record(&mut AstProgram(&f));
        let a = batch_detect(&pt, &cfg(k, 2, 0)).expect("in-memory batch run");

        let mut buf = Vec::new();
        pt.save_compressed(&mut buf, chunk_events).expect("compressed save");
        let b = batch_detect_chunked(&buf[..], &cfg(k, 2, 0)).expect("chunked batch run");

        prop_assert_eq!(a.merged.render(), b.merged.render(), "chunk={}", chunk_events);
        prop_assert_eq!(a.events, b.events, "chunk={}", chunk_events);
        // Wholesale run consumption and dirty strand-end filtering only ever
        // shave work off the streamed side — shard by shard it never replays
        // more than the in-memory partition did.
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            prop_assert!(
                sb.events <= sa.events,
                "chunk={}: shard {} streamed {} > in-memory {}",
                chunk_events, sa.index, sb.events, sa.events
            );
        }
        // Ingest telemetry: chunk framing + payload bytes are exactly the
        // file minus its header, and every decoded trace event is counted.
        let ingest = b.ingest.expect("chunked run reports ingest stats");
        prop_assert_eq!(ingest.bytes + v2_header_len(&buf), buf.len() as u64);
        if ingest.events > 0 {
            prop_assert!(ingest.bytes > 0 && ingest.chunks > 0);
        }
    }

    #[test]
    fn pipeline_sources_and_schedules_agree(f in func_strategy(3)) {
        let pt = PortableTrace::record(&mut AstProgram(&f));
        if let Err(e) = assert_sources_and_schedules_agree(&pt) {
            prop_assert!(false, "{}", e);
        }
    }

    /// A recorded trace stores each strand's runs, not its hooks: batch
    /// detection over it — loaded from v1, or streamed from v2 — renders the
    /// bytes the hook stream of the same run renders, for every K.
    #[test]
    fn recorded_units_render_as_the_hook_stream(f in func_strategy(3)) {
        let hooks = hook_trace(&mut AstProgram(&f));
        let units = PortableTrace::record(&mut AstProgram(&f));
        prop_assert_eq!(&units.trace.events, &hooks.trace.clone().coalesced().events);
        let mut v1 = Vec::new();
        units.save(&mut v1).expect("save to Vec");
        let v1 = stint_repro::batchdet::load_trace(&v1[..]).expect("load what we saved");
        let mut v2 = Vec::new();
        units.save_compressed(&mut v2, DEFAULT_CHUNK_EVENTS).expect("compressed save");
        for k in [1usize, 2, 7, 16] {
            let want = batch_detect(&hooks, &cfg(k, 2, 0)).expect("hook-stream run").merged.render();
            let from_v1 = batch_detect(&v1, &cfg(k, 2, 0)).expect("v1 run");
            prop_assert_eq!(&from_v1.merged.render(), &want, "K={} v1", k);
            let from_v2 = batch_detect_chunked(&v2[..], &cfg(k, 2, 0)).expect("v2 run");
            prop_assert_eq!(&from_v2.merged.render(), &want, "K={} v2", k);
        }
    }
}
