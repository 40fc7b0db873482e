//! Chaos suite: under every fault plan, every tier must keep the race
//! verdict, degrade soundly with exit 3, or fail with a structured exit 4 —
//! never an escaping panic, and never a race silently lost.
//!
//! The plans: `om` (narrowed tag space, relabel storms), `shadow` (page and
//! chunk caps, simulated OOM), `ivtree` (degenerate treap priorities),
//! `cilkrt` (worker spawn failures and startup deaths), `core` (the
//! injected flush panic behind the poisoned path), and interval budgets
//! alone or combined with faults. Each per-tier fault test is one row set
//! of the conformance harness under a plan and a contract
//! ([`common::check_under`]); the rest check directed interleavings, exact
//! expected words, corrupted traces and pinned details, which a plan row
//! cannot express.
//!
//! The fault plan is process-global, so this suite lives in its own test
//! binary and serializes every test on [`common::lock`].

use std::sync::Mutex;
use stint_repro::batchdet::{batch_detect_any, new_pool, BatchConfig, BatchOutcome};
use stint_repro::cilkrt::ThreadPool;
use stint_repro::suite::buggy::OverlappingMerge;
use stint_repro::suite::{Scale, Workload};
use stint_repro::Variant::{self, Stint, StintFlat};
use stint_repro::{try_detect_with, CilkProgram, Config, DetectorError, FaultPlan, Resource};
use stint_repro::{ScopedPlan, DEFAULT_CHUNK_EVENTS};

mod common;
use common::Contract::{Degraded, Exact, ExactOrExhausted, Poisoned, Sound};
use common::{batch, check_under, hook_trace, live, lock, online, plan, Row, Src, Verdict};

/// The chaos corpus: clean paper kernels and the seeded-bug suite.
const CORPUS: [&str; 5] = ["mmul", "sort", "buggy-mmul", "buggy-heat", "buggy-merge"];
/// A clean kernel and a racy one.
const PAIR: [&str; 2] = ["sort", "buggy-mmul"];
const V2: Src = Src::V2(DEFAULT_CHUNK_EVENTS);

/// Every variant live; STINT replaying the hook stream, STINT(btree) the
/// units loaded from v2.
fn sequential() -> Vec<Row> {
    let replays = [
        Row::Replay(true, Src::Mem, Stint),
        Row::Replay(false, V2, StintFlat),
    ];
    [&live()[..], &replays].concat()
}

/// K-shard batch detection of the units on `workers` workers, in memory and
/// streamed from v2, then a served DETECT of them.
fn served(k: usize, workers: usize) -> [Row; 3] {
    let at = |src| batch(false, src, k, workers, 0);
    [at(Src::Mem), at(V2), Row::Serve(V2, k)]
}

/// Every tier: [`sequential`], [`served`] and online detection.
fn tiers() -> Vec<Row> {
    [&sequential()[..], &served(4, 2), &[online(2, 0, 64)]].concat()
}

/// `e` is the structured corruption error, exit 4.
fn assert_corrupt(e: &DetectorError, what: &str) {
    assert!(
        matches!(e, DetectorError::CorruptTrace { .. }),
        "{what}: {e}"
    );
    assert_eq!(e.exit_code(), 4, "{what}");
}

/// A trace stream of either format through the batch tier's one entry, on a
/// pool built from `cfg`.
fn detect_any(mut bytes: &[u8], cfg: &BatchConfig) -> Result<BatchOutcome, DetectorError> {
    let pool = new_pool(cfg.workers, cfg.steal_seed);
    batch_detect_any(&pool, &mut bytes, cfg)
}

/// An `om` plan: a narrowed tag universe either survives all forced
/// relabels with the exact verdict or fails with the OmTags resource error.
#[test]
fn om_tag_pressure_yields_verdict_or_structured_error() -> Verdict {
    let plans = ["om-tags=8", "om-tags=12", "om-tags=16"];
    check_under(&plans, ExactOrExhausted, &CORPUS, &tiers())
}

/// An `om` plan, storm flavor: forced relabel passes are a pure perf fault.
#[test]
fn om_relabel_storms_keep_verdicts_exact() -> Verdict {
    check_under(&["om-storm=2,seed=42"], Exact, &CORPUS, &tiers())
}

/// `shadow` plans on the sequential tiers: allocation caps and simulated
/// OOM degrade soundly.
#[test]
fn shadow_exhaustion_degrades_soundly() -> Verdict {
    let plans = ["shadow-pages=2", "shadow-oom-at=4,seed=7"];
    check_under(&plans, Sound, &CORPUS, &sequential())
}

/// Two parallel strands, each storing one word of an allocatable chunk and
/// then, over and over, one word and one whole 64-word group of four further
/// chunks (at the fixed addresses `FAR`).
struct FiveChunks;
const FAR: [u64; 4] = [5 << 16, 6 << 16, 7 << 16, 8 << 16];
impl CilkProgram for FiveChunks {
    fn run<C: stint_repro::Cilk>(&mut self, ctx: &mut C) {
        let strand = |c: &mut C| {
            c.store(10 * 4, 4);
            for far in FAR {
                for _ in 0..100 {
                    c.store((far as usize + 70) * 4, 4);
                    c.store((far as usize + 64) * 4, 256);
                }
            }
        };
        ctx.spawn(strand);
        strand(ctx);
        ctx.sync();
    }
}

/// [`FiveChunks`]' racy words when the chunks at `dropped` are not tracked.
fn racy_without(dropped: &[u64]) -> Vec<u64> {
    let tracked = FAR.iter().filter(|far| !dropped.contains(far));
    std::iter::once(10)
        .chain(tracked.flat_map(|far| far + 64..far + 128))
        .collect()
}

/// A `shadow` plan through the hook lane: [`FiveChunks`] under a
/// one-chunk budget refuses all four far chunks; `shadow-oom-at=1` refuses
/// them from one on (which one is seed-jittered). A cached dropped slot must
/// never take the inlined lane: the races on tracked chunks are all found,
/// those on a refused chunk are missed *with* the degradation on record
/// (once, at the first refused chunk's first word), and nothing is
/// fabricated.
#[test]
fn repeated_hits_on_a_dropped_chunk_degrade_soundly() {
    let _g = lock();
    let budget = stint_repro::ResourceBudget {
        max_shadow_bytes: Some(8 << 10), // one 1024-group chunk per bit table
        ..Default::default()
    };
    let fault = plan("shadow-oom-at=1");
    for by_fault in [false, true] {
        for v in [Variant::Stint, Variant::StintFlat, Variant::CompRts] {
            let _plan = by_fault.then(|| ScopedPlan::install(fault.clone()));
            let mut cfg = Config::new(v);
            if !by_fault {
                cfg.budget = budget;
            }
            let o = try_detect_with(&mut FiveChunks, cfg).expect("exhaustion must not abort");
            let ctx = format!("{v}, by_fault={by_fault}");
            let racy = o.report.racy_words();
            let Some(DetectorError::ResourceExhausted {
                resource: Resource::ShadowPages,
                limit,
                at_word: Some(at),
            }) = o.degraded
            else {
                panic!("{ctx}: degradation not on record: {:?}", o.degraded);
            };
            if v == Variant::CompRts {
                // The word-granularity history has a cap (or a failing
                // allocation) of its own: sound, but it may find less.
                let all = racy_without(&[]);
                assert!(racy.iter().all(|w| all.contains(w)), "{ctx}: {racy:?}");
            } else if by_fault {
                // The allocation count stands still from the failure on, so
                // every later chunk is refused as well.
                let k = FAR.iter().position(|&far| far == at).expect("a FAR chunk");
                assert_eq!(limit, k as u64 + 1, "{ctx}: at {at:#x}");
                assert_eq!(racy, racy_without(&FAR[k..]), "{ctx}");
            } else {
                assert_eq!((limit, at), (1, FAR[0]), "{ctx}");
                assert_eq!(racy, racy_without(&FAR), "{ctx}");
            }
        }
    }
}

/// The `ivtree` plan: worst-case treap priorities (a list-shaped tree) are
/// a pure perf fault. The plan is sampled at construction: a treap built
/// under it and fed 100 sorted runs is a list.
#[test]
fn degenerate_treap_keeps_verdicts_exact() -> Verdict {
    use stint_repro::{Interval, IntervalStore, StrandId, Treap};
    check_under(&["treap-degenerate"], Exact, &CORPUS, &tiers())?;
    let _g = lock();
    let mut t: Treap<StrandId> = {
        let _plan = ScopedPlan::install(plan("treap-degenerate"));
        Treap::new()
    };
    for i in 0..100u64 {
        t.insert_write(Interval::new(i * 10, i * 10 + 4, StrandId(0)), |_, _, _| {});
    }
    assert_eq!(t.height(), 100);
    Ok(())
}

/// The `ivtree` layer's exhaustion flavor: overrunning the treap's node
/// cap must raise the structured Intervals resource error (exit 3), not an
/// arbitrary `assert!` abort — the same typed-panic protocol every other
/// arena uses, so `try_detect_with`'s catch_unwind turns it into `Err`.
#[test]
fn treap_node_cap_raises_structured_error() {
    let _g = lock();
    use stint_repro::{Interval, IntervalStore, StrandId, Treap};
    let mut t: Treap<StrandId> = Treap::new();
    t.set_node_cap(4);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Disjoint intervals: every insert allocates a fresh node.
        for i in 0..16u64 {
            t.insert_write(Interval::new(i * 10, i * 10 + 4, StrandId(0)), |_, _, _| {});
        }
    }))
    .expect_err("the fifth fresh node must trip the cap");
    let e = payload
        .downcast::<DetectorError>()
        .expect("cap overrun must carry the typed DetectorError payload");
    assert!(
        matches!(
            *e,
            DetectorError::ResourceExhausted {
                resource: Resource::Intervals,
                limit: 4,
                ..
            }
        ),
        "unexpected failure {e}"
    );
    assert_eq!(e.exit_code(), 3);
}

/// Two siblings whose flushes are long enough to be spliced through the
/// treap's split–join cut: the spawned child stores 160 scattered words; the
/// continuation stores the same 160 (every one a write–write race) plus 160
/// more elsewhere, so its 320-run flush lands half inside the stored cover.
struct ScatterSiblings;
const SCATTER_RACES: usize = 160;

impl CilkProgram for ScatterSiblings {
    fn run<C: stint_repro::Cilk>(&mut self, ctx: &mut C) {
        ctx.spawn(|c| {
            for i in 0..SCATTER_RACES {
                c.store(0x1000 + 12 * i, 4);
            }
        });
        for i in 0..SCATTER_RACES {
            ctx.store(0x1000 + 12 * i, 4);
            ctx.store(0x9000 + 12 * i, 4);
        }
        ctx.sync();
    }
}

/// The `ivtree` plan on the bulk path: a list-shaped treap, and an
/// interval budget that trips inside a >=128-run flush, cut open. The budget
/// is checked after the flush that crosses it, so that flush's races are all
/// reported and the run ends in the documented exit-3 degradation; the
/// `FlatStore` oracle, whose bulk insert is the per-run loop, must reach the
/// same verdict.
#[test]
fn long_flush_through_the_cut_degrades_without_losing_a_race() {
    let _g = lock();
    for degenerate in [false, true] {
        let _plan = ScopedPlan::install(FaultPlan {
            treap_degenerate: degenerate,
            ..Default::default()
        });
        for v in [Variant::Stint, Variant::StintFlat] {
            for budget in [None, Some(200)] {
                let mut cfg = Config::new(v);
                cfg.budget.max_intervals = budget;
                let o = try_detect_with(&mut ScatterSiblings, cfg)
                    .unwrap_or_else(|e| panic!("{v} degenerate={degenerate} {budget:?}: {e}"));
                assert_eq!(
                    o.report.racy_words().len(),
                    SCATTER_RACES,
                    "{v} degenerate={degenerate} {budget:?}: a seeded race was lost"
                );
                match (budget, o.degraded) {
                    (None, None) => {}
                    (Some(_), Some(e)) => assert_eq!(e.exit_code(), 3, "{e}"),
                    (b, d) => panic!("budget {b:?} but degraded {d:?}"),
                }
            }
        }
    }
}

/// `cilkrt` plans: worker spawn failures and startup deaths leave
/// the pool correct (degraded to fewer workers, ultimately sequential).
#[test]
fn worker_failures_keep_pool_results_correct() {
    let _g = lock();
    fn sum(pool: &ThreadPool, lo: u64, hi: u64) -> u64 {
        if hi - lo <= 64 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = pool.join(|| sum(pool, lo, mid), || sum(pool, mid, hi));
        a + b
    }
    let expected: u64 = (0..10_000).sum();
    for spec in [
        "worker-spawn-fail=1",
        "worker-spawn-fail=0",
        "worker-panic=0",
    ] {
        let pool = {
            let _plan = ScopedPlan::install(plan(spec));
            ThreadPool::new(4)
        };
        assert_eq!(sum(&pool, 0, 10_000), expected, "plan {spec}");
    }
}

/// The poisoned path: an injected flush panic is a structured `Poisoned`
/// error with exit code 4 on every variant, live or replayed.
#[test]
fn injected_flush_panic_is_reported_as_poisoned() -> Verdict {
    check_under(&["panic-at-flush=1"], Poisoned, &PAIR, &sequential())
}

/// Serialize a fresh recorded trace of a suite workload.
fn recorded_trace_text(bench: &str) -> String {
    let mut w = Workload::by_name(bench, Scale::Test);
    let pt = stint_repro::PortableTrace::record(&mut w);
    let mut buf = Vec::new();
    pt.save(&mut buf).expect("save to Vec");
    String::from_utf8(buf).expect("trace text is ASCII")
}

/// Trace robustness: truncated, bit-flipped, and wrong-version trace files
/// fed to batch replay come back as a structured `CorruptTrace` error (exit
/// code 4) — never a panic, and never an out-of-bounds replay.
#[test]
fn batch_rejects_corrupted_traces_structurally() {
    let _g = lock();
    use stint_repro::batchdet::load_trace;
    let good = recorded_trace_text("sort");

    // Truncation, including a cut straight through a line.
    for frac in [0, 1, 2, 3] {
        let cut = good.len() * frac / 4 + 3;
        let e = load_trace(&good.as_bytes()[..cut.min(good.len() - 1)])
            .expect_err("truncated trace must be rejected");
        assert_corrupt(&e, "truncation");
    }

    // A "bit flip" inside a strand id: still parses, but the strand indexes
    // out of the frozen reachability snapshot — validation must catch it
    // before any shard replays it.
    let flipped: Vec<String> = {
        let mut done = false;
        good.lines()
            .map(|l| {
                let mut t = l.split_whitespace();
                let op = t.next().unwrap_or("");
                if !done && matches!(op, "l" | "s" | "L" | "S") {
                    done = true;
                    let rest: Vec<&str> = t.collect();
                    format!("{op} 999999 {} {}", rest[1], rest[2])
                } else {
                    l.to_string()
                }
            })
            .collect()
    };
    let e = load_trace(flipped.join("\n").as_bytes())
        .expect_err("out-of-range strand must be rejected");
    assert_corrupt(&e, "strand");
    assert!(e.to_string().contains("out of range"), "{e}");

    // Wrong format version.
    let versioned = good.replacen("STINT-TRACE v1", "STINT-TRACE v2", 1);
    let e = load_trace(versioned.as_bytes()).expect_err("wrong version must be rejected");
    assert_corrupt(&e, "version");

    // And the original still loads and batch-detects cleanly.
    let pt = load_trace(good.as_bytes()).expect("pristine trace loads");
    let out = stint_repro::batchdet::batch_detect(&pt, &Default::default())
        .expect("pristine trace detects");
    assert!(out.merged.is_race_free());
}

/// Compressed-trace robustness: truncated and bit-flipped STINT-TRACE v2
/// streams fed to the streaming batch path come back as a structured
/// `CorruptTrace` error (exit code 4) — the per-chunk checksums and varint
/// bounds reject the damage before any shard replays an event.
#[test]
fn chunked_batch_rejects_corrupted_compressed_traces() {
    let _g = lock();
    let pt = hook_trace(&mut Workload::by_name("sort", Scale::Test));
    let mut good = Vec::new();
    pt.save_compressed(&mut good, 256).expect("compressed save");
    let cfg = BatchConfig::default();

    // Truncation at several depths: inside the header, inside a chunk body,
    // and just shy of the final chunk.
    for frac in [1, 2, 3] {
        let cut = (good.len() * frac / 4).min(good.len() - 1);
        let e = detect_any(&good[..cut], &cfg)
            .expect_err("truncated compressed trace must be rejected");
        assert_corrupt(&e, &format!("cut at {frac}/4"));
    }

    // A single flipped bit in the middle of the stream trips a checksum
    // (or a bounds check) — never a panic, never a silent wrong verdict.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x20;
    let e =
        detect_any(&flipped[..], &cfg).expect_err("bit-flipped compressed trace must be rejected");
    assert_corrupt(&e, "bit flip");

    // And the pristine stream still detects cleanly.
    let out = detect_any(&good[..], &cfg).expect("pristine compressed trace detects");
    assert!(out.merged.is_race_free());
    assert!(out.ingest.is_some_and(|st| st.chunks > 1));
}

/// An injected flush panic inside a shard worker surfaces from the batch
/// fan-out, in memory or streamed, as `Poisoned` (exit 4), and a served
/// session answers `poisoned`.
#[test]
fn batch_injected_flush_panic_is_poisoned() -> Verdict {
    check_under(&["panic-at-flush=1"], Poisoned, &PAIR, &served(4, 2))
}

/// Batch detection and serve under shadow caps degrade soundly.
#[test]
fn batch_shadow_caps_degrade_soundly() -> Verdict {
    let plans = ["shadow-pages=2", "shadow-oom-at=4,seed=7"];
    check_under(
        &plans,
        Sound,
        &["mmul", "sort", "buggy-mmul"],
        &served(3, 2),
    )
}

/// Recording stays exact under shadow faults: `--fault-plan` applies to
/// `trace record` too, but the coalescing on the way to disk drops no
/// access, so a trace recorded under a one-chunk cap or a failing chunk
/// allocation is the fault-free recording, and its fault-free replay finds
/// every race.
#[test]
fn recording_under_shadow_faults_keeps_every_access() {
    use stint_repro::{PortableTrace, RaceReport, StintDetector};
    let _g = lock();
    let racy = |pt: &PortableTrace| {
        pt.replay(StintDetector::new(RaceReport::default()))
            .report
            .racy_words()
    };
    let merge = |pt: &PortableTrace| racy(pt).len();
    let clean = PortableTrace::record(&mut FiveChunks);
    let clean_merge = merge(&PortableTrace::record(&mut OverlappingMerge::new(64, 4, 7)));
    assert_eq!(racy(&clean), racy_without(&[]));
    assert!(clean_merge > 0);
    for spec in ["shadow-pages=1", "shadow-oom-at=1"] {
        let (faulted, faulted_merge) = {
            let _plan = ScopedPlan::install(plan(spec));
            (
                PortableTrace::record(&mut FiveChunks),
                PortableTrace::record(&mut OverlappingMerge::new(64, 4, 7)),
            )
        };
        assert_eq!(faulted.trace.events, clean.trace.events, "{spec}");
        assert_eq!(racy(&faulted), racy(&clean), "{spec}");
        assert_eq!(merge(&faulted_merge), clean_merge, "{spec}");
    }
}

/// A `cilkrt` plan composed with batch and serve: if every worker fails to
/// spawn, the fan-out runs sequentially on the degraded pool and the verdict
/// is exact.
#[test]
fn batch_survives_worker_spawn_failures() -> Verdict {
    let rows = [&served(4, 4)[..], &[Row::Live(Config::new(Stint))]].concat();
    check_under(&["worker-spawn-fail=0"], Exact, &PAIR, &rows)
}

/// Budgets compose with faults: capped, stormed and list-shaped at once,
/// every tier still ends in a sound verdict (a replay has no budget).
#[test]
fn combined_faults_and_budgets_stay_structured() -> Verdict {
    let spec = "om-storm=3,shadow-pages=2,treap-degenerate,seed=1234,max-intervals=64";
    check_under(&[spec], Sound, &["mmul", "buggy-mmul"], &tiers())
}

/// Parallel-online under the injected flush panic, at every worker count:
/// the sequential tier's `Poisoned` (exit 4), never a partial report.
#[test]
fn online_injected_flush_panic_is_poisoned() -> Verdict {
    let rows = [1, 2, 4].map(|workers| online(workers, 0, 64));
    check_under(&["panic-at-flush=1"], Poisoned, &PAIR, &rows)
}

/// Parallel-online under shadow exhaustion degrades soundly.
#[test]
fn online_shadow_exhaustion_degrades_soundly() -> Verdict {
    let plans = ["shadow-pages=2", "shadow-oom-at=4,seed=7"];
    let rows = [1, 2].map(|workers| online(workers, 0, 64));
    check_under(&plans, Sound, &["mmul", "buggy-mmul"], &rows)
}

/// Parallel-online under a one-interval shard budget degrades soundly, and
/// must degrade.
#[test]
fn online_interval_budget_degrades_soundly() -> Verdict {
    let rows = [online(2, 0, 64)];
    check_under(&["max-intervals=1"], Degraded, &["buggy-mmul"], &rows)
}

/// Parallel-online on a pool whose workers all die at startup or never
/// spawn: it runs on fewer (ultimately zero) stealing workers, exactly.
#[test]
fn online_survives_worker_startup_panics() -> Verdict {
    let plans = ["worker-panic=0", "worker-spawn-fail=0"];
    let rows = [online(4, 0, 64), Row::Live(Config::new(Stint))];
    check_under(&plans, Exact, &PAIR, &rows)
}

/// A racy loop whose every iteration flushes: the root strand stores before
/// each spawn, so even a 16-event chunk holds several strand flushes and a
/// race of its own.
struct RacyLoop(usize);
impl CilkProgram for RacyLoop {
    fn run<C: stint_repro::Cilk>(&mut self, ctx: &mut C) {
        for i in 0..self.0 {
            let a = 0x1000 + i * 64;
            ctx.store(a, 4);
            ctx.spawn(move |c| c.store(a + 8, 8));
            ctx.store(a + 8, 4);
            ctx.sync();
        }
    }
}

/// The online hand-off under a flush panic deep in the run: the drain side
/// dies at some batch in the middle while the executor is still producing —
/// blocked on a free buffer or about to be. The hang-up must reach it: the
/// program runs to its end over inert hooks, nothing is published, and the
/// run is `Poisoned` (exit 4) for any worker count and chunking.
#[test]
fn online_flush_panic_mid_run_hangs_up_on_the_executor() {
    let _g = lock();
    use stint_repro::batchdet::{OnlineConfig, OnlineEngine};
    use stint_repro::{run_with_detector_r, DePaReach, NopDetector};
    let spawns = |c: stint_repro::ExecCounters| (c.spawns, c.syncs);
    let healthy = run_with_detector_r::<_, _, DePaReach>(&mut RacyLoop(400), NopDetector)
        .0
        .counters;
    for (workers, chunk_events, at) in [(1, 16, 40), (2, 16, 40), (4, 1, 7), (2, 64, 90)] {
        let _plan = ScopedPlan::install(plan(&format!("panic-at-flush={at}")));
        let cfg = OnlineConfig {
            shards: 2,
            workers,
            chunk_events,
            ..Default::default()
        };
        let (ex, _) =
            run_with_detector_r::<_, _, DePaReach>(&mut RacyLoop(400), OnlineEngine::new(cfg));
        assert_eq!(spawns(ex.counters), spawns(healthy), "the program ran on");
        let mut engine = ex.into_detector();
        let e = stint_repro::Detector::failure(&engine)
            .expect("the drain side's panic poisons the run");
        assert!(matches!(e, DetectorError::Poisoned { .. }), "{e}");
        assert!(e.to_string().contains("injected flush panic"), "{e}");
        assert!(
            engine.take_outcome().is_none(),
            "a poisoned run publishes nothing"
        );
        let e = stint_repro::batchdet::online_detect(&mut RacyLoop(400), &cfg)
            .expect_err("workers={workers} chunk={chunk_events}");
        assert_eq!(e.exit_code(), 4);
    }
}

/// `RacyLoop` as a v2 stream in 16-event chunks, with the byte offset at
/// which each chunk starts (and the stream ends) and each chunk's decoded
/// event count.
fn racy_loop_v2() -> (stint_repro::PortableTrace, Vec<u8>, Vec<usize>, Vec<u64>) {
    let pt = hook_trace(&mut RacyLoop(64));
    let mut v2 = Vec::new();
    pt.save_compressed(&mut v2, 16).expect("compressed save");
    let mut cur = std::io::Cursor::new(&v2[..]);
    let mut reader =
        stint_repro::ctrace::CompressedTraceReader::open(&mut cur).expect("header parses");
    // Chunk ends relative to the first chunk; everything before is header.
    let (mut ends, mut events, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    while reader.next_chunk(&mut runs).expect("chunk decodes") {
        ends.push(reader.bytes_read() as usize);
        events.push(runs.iter().map(|r| r.count).sum());
    }
    let header = v2.len() - ends.last().expect("at least one chunk");
    let mut starts = vec![header];
    starts.extend(ends.iter().map(|e| header + e));
    assert!(events.len() > 8, "{} chunks", events.len());
    (pt, v2, starts, events)
}

/// A `BufRead` over a byte slice that hands out the bytes before `gate_at`
/// freely and runs `wait` once before the first byte past it — the seam the
/// pipeline tests use to hold the producer arm mid-decode.
struct GatedReader<'a, W> {
    data: &'a [u8],
    pos: usize,
    gate_at: usize,
    wait: Option<W>,
}

impl<W: FnOnce() -> std::io::Result<()>> std::io::BufRead for GatedReader<'_, W> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos < self.gate_at {
            return Ok(&self.data[self.pos..self.gate_at]);
        }
        if let Some(wait) = self.wait.take() {
            wait()?;
        }
        Ok(&self.data[self.pos..])
    }
    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

impl<W: FnOnce() -> std::io::Result<()>> std::io::Read for GatedReader<'_, W> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        use std::io::BufRead;
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

fn two_shards() -> BatchConfig {
    BatchConfig {
        shards: 2,
        workers: 2,
        ..Default::default()
    }
}

/// The pipelined driver under an injected flush panic, with the interleaving
/// forced: the producer arm is held one byte into chunk 1 until the drain of
/// batch 0 — necessarily stolen by the other worker — has panicked. The run
/// is `Poisoned` (exit 4), does not hang, and the same pool then completes a
/// clean detection.
#[test]
fn pipeline_flush_panic_while_producer_is_mid_decode_is_poisoned() {
    let _g = lock();
    use stint_repro::batchdet::batch_detect_chunked_on;
    let (_, v2, starts, _) = racy_loop_v2();
    let pool = ThreadPool::new(2);
    let healthy = batch_detect_chunked_on(&pool, &v2[..], &two_shards())
        .expect("healthy run")
        .merged
        .render();

    let (tx, rx) = std::sync::mpsc::channel();
    let tx = Mutex::new(tx);
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.to_string().contains("injected flush panic") {
            let _ = tx.lock().unwrap_or_else(|e| e.into_inner()).send(());
        }
    }));
    let reader = GatedReader {
        data: &v2,
        pos: 0,
        gate_at: starts[1] + 1,
        wait: Some(move || {
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .map_err(|_| std::io::Error::other("no drain panicked while chunk 1 was decoding"))
        }),
    };
    let res = {
        let _plan = ScopedPlan::install(plan("panic-at-flush=1"));
        batch_detect_chunked_on(&pool, reader, &two_shards())
    };
    std::panic::set_hook(prev_hook);
    let e = res.expect_err("injected shard panic must surface as an error");
    assert!(matches!(e, DetectorError::Poisoned { .. }), "{e}");
    assert_eq!(e.exit_code(), 4);
    assert!(e.to_string().contains("injected flush panic"), "{e}");

    let again = batch_detect_chunked_on(&pool, &v2[..], &two_shards())
        .expect("the pool must survive a poisoned run");
    assert_eq!(again.merged.render(), healthy);
}

/// A corrupt or truncated chunk met by the producer arm while the previous
/// batch drains is `CorruptTrace` (exit 4) for any worker count — the `join`
/// finishes the in-flight drain before the error is acted on. That order is
/// observable: when the in-flight drain also panics, its verdict (earlier in
/// stream order) wins over the corruption behind it.
#[test]
fn pipeline_corrupt_chunk_behind_an_inflight_drain_is_structured() {
    let _g = lock();
    use stint_repro::batchdet::batch_detect_chunked_on;
    let (_, v2, starts, _) = racy_loop_v2();
    let mut flipped = v2.clone();
    flipped[starts[2] - 1] ^= 0x20; // last payload byte of chunk 1
    let truncated = &v2[..starts[1] + 5];
    for workers in [1usize, 2, 4] {
        let pool = ThreadPool::new(workers);
        let healthy = batch_detect_chunked_on(&pool, &v2[..], &two_shards())
            .expect("healthy run")
            .merged
            .render();
        for (what, bad) in [("bit flip", &flipped[..]), ("truncation", truncated)] {
            let e = batch_detect_chunked_on(&pool, bad, &two_shards())
                .expect_err("damaged stream must be rejected");
            assert_corrupt(&e, &format!("workers={workers} {what}"));
            let e = {
                let _plan = ScopedPlan::install(plan("panic-at-flush=1"));
                batch_detect_chunked_on(&pool, bad, &two_shards())
                    .expect_err("damaged stream under a flush panic must be rejected")
            };
            assert!(
                matches!(e, DetectorError::Poisoned { .. }),
                "workers={workers} {what}: batch 0's drain did not finish first: {e}"
            );
        }
        let again = batch_detect_chunked_on(&pool, &v2[..], &two_shards())
            .expect("the pool must survive rejected runs");
        assert_eq!(again.merged.render(), healthy, "workers={workers}");
    }
}

/// A deadline that trips between two batches degrades the run as
/// `ResourceExhausted(WallClock)` and still drains everything routed before
/// the check: the verdict is exactly that of the ingested prefix, races of
/// the last routed chunk included. The reader holds the producer inside
/// chunk 3 until the deadline has passed, so the trip lands between batches.
#[test]
fn pipeline_deadline_between_batches_drains_what_was_routed() {
    let _g = lock();
    use stint_repro::batchdet::{batch_detect, batch_detect_chunked_on, SessionLimits};
    let (pt, v2, starts, events) = racy_loop_v2();
    let pool = ThreadPool::new(2);
    let cfg = BatchConfig {
        limits: SessionLimits::default().timeout_after(std::time::Duration::from_millis(300)),
        ..two_shards()
    };
    let deadline = cfg.limits.deadline.expect("set above");
    let reader = GatedReader {
        data: &v2,
        pos: 0,
        gate_at: starts[3] + 1,
        wait: Some(move || {
            while std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Ok(())
        }),
    };
    let out = batch_detect_chunked_on(&pool, reader, &cfg)
        .expect("a tripped deadline degrades, it does not fail");
    match &out.degraded {
        Some(DetectorError::ResourceExhausted { resource, .. }) => {
            assert_eq!(*resource, Resource::WallClock)
        }
        other => panic!("expected the wall-clock degradation, got {other:?}"),
    }
    let ingest = out.ingest.expect("chunked runs report ingest stats");
    assert!(
        ingest.chunks >= 4 && (ingest.chunks as usize) < events.len(),
        "{ingest:?}"
    );
    let prefix = |chunks: usize| {
        let n: u64 = events[..chunks].iter().sum();
        let mut cut = pt.clone();
        cut.trace.events.truncate(n as usize);
        batch_detect(&cut, &two_shards())
            .expect("prefix detects")
            .merged
    };
    let routed = prefix(ingest.chunks as usize);
    assert_eq!(out.merged.render(), routed.render());
    assert!(
        routed.racy_words.len() > prefix(ingest.chunks as usize - 1).racy_words.len(),
        "the last routed chunk holds no race of its own"
    );
}

/// A v2 file of one strand whose first run claims `count` gapped
/// `StoreRange`s (176 bytes at stride 192: no wholesale range, so the run
/// steps event by event), then the strand's end; both frames sealed.
fn v2_with_one_long_run(count: u64) -> Vec<u8> {
    use stint_repro::{ctrace::HIST_BUCKETS, varint::put, wire::put_frame};
    let addr = 0x10_0000u64;
    let mut header = Vec::new();
    // One strand ranked first in both orders, the events, the word bounds,
    // and an empty partition index.
    let claims = [
        1,
        0,
        0,
        count + 1,
        addr / 4,
        count * 48,
        HIST_BUCKETS as u64,
    ];
    for v in claims.into_iter().chain([0; HIST_BUCKETS]) {
        put(&mut header, v);
    }
    // Op tags 3 (`StoreRange`) and 5 (`StrandEnd`), strand 0; addresses and
    // strides are zigzag-coded.
    let mut payload = vec![3];
    for v in [0, addr * 2, 176, count, 192 * 2] {
        put(&mut payload, v);
    }
    payload.extend([5, 0]);
    let mut file = format!("{}\n", stint_repro::MAGIC_V2).into_bytes();
    put_frame(&mut file, &header);
    put(&mut file, 2);
    put_frame(&mut file, &payload);
    file
}

/// One run of a streamed file may claim 2^30 events; the producer feeds a
/// bounded number of them a step, so the deadline is checked inside the
/// run and the session comes back degraded by its wall clock, not after
/// feeding the whole run (tens of seconds under an 8 MiB shadow budget).
#[test]
fn deadline_holds_inside_one_long_run() {
    let _g = lock();
    use stint_repro::batchdet::SessionLimits;
    let file = v2_with_one_long_run(1 << 30);
    let pool = ThreadPool::new(2);
    let limits = SessionLimits {
        budget: stint_repro::ResourceBudget::default().with_shadow_mb(8),
        ..SessionLimits::default()
    };
    let cfg = BatchConfig {
        limits: limits.timeout_after(std::time::Duration::from_millis(50)),
        ..two_shards()
    };
    let t0 = std::time::Instant::now();
    let out = batch_detect_any(&pool, &mut &file[..], &cfg)
        .expect("a tripped deadline degrades, it does not fail");
    let took = t0.elapsed();
    match &out.degraded {
        Some(DetectorError::ResourceExhausted { resource, .. }) => {
            assert_eq!(*resource, Resource::WallClock)
        }
        other => panic!("expected the wall-clock degradation, got {other:?}"),
    }
    assert!(took < std::time::Duration::from_secs(5), "took {took:?}");
}

/// A `cilkrt` plan composed with the pipelined driver: every worker dies at
/// start-up while the session's `install` job sits in the injector. The
/// waiter runs the whole pipeline inline (each `join` a serial elision), in
/// memory and streamed in 16-event chunks, twice on the pool the first row
/// built, and the verdict is exact; so is a served DETECT.
#[test]
fn pipeline_survives_worker_startup_panics() -> Verdict {
    let round = [Src::Mem, Src::V2(16)].map(|src| batch(true, src, 2, 2, 0));
    let rows = [&round[..], &round, &[Row::Serve(Src::V2(16), 2)]].concat();
    check_under(&["worker-panic=0"], Exact, &PAIR, &rows)
}

/// Adversarial short reads (satellite): zero-length input, EOF straight
/// after the magic, EOF mid-header, and EOF mid-varint must all surface as
/// a structured `CorruptTrace` from the ingest seams — never a panic, and
/// never a busy-loop on a reader that stops advancing. The v2 sweep cuts
/// the stream densely through the magic + header region (where the varint
/// framing lives) and at sampled depths through the chunk frames.
#[test]
fn short_reads_are_structured_corruption() {
    let _g = lock();
    use stint_repro::batchdet::load_trace;
    use stint_repro::PortableTrace;

    // Zero-length input on both ingest seams.
    assert_corrupt(
        &load_trace(&[][..]).expect_err("empty input must be rejected"),
        "empty load_trace",
    );
    let cfg = BatchConfig::default();
    assert_corrupt(
        &detect_any(&[][..], &cfg).expect_err("empty input must be rejected"),
        "empty batch entry",
    );

    // EOF immediately after each magic line: v1 has no strand header yet,
    // v2 dies inside the first framing varint.
    for magic in ["STINT-TRACE v1\n", "STINT-TRACE v2\n", "STINT-TRACE v"] {
        assert_corrupt(
            &load_trace(magic.as_bytes()).expect_err("bare magic must be rejected"),
            magic,
        );
    }

    let pt = hook_trace(&mut Workload::by_name("sort", Scale::Test));
    let mut v2 = Vec::new();
    pt.save_compressed(&mut v2, 64).expect("compressed save");

    // Dense sweep through magic + header varints + header payload, then
    // sampled cuts through the chunk frames: every prefix must come back
    // as a plain parse error from `load_any` (no panic, no hang) …
    let dense = 0..v2.len().min(96);
    let sampled = (1..64).map(|i| i * v2.len() / 64);
    for cut in dense.chain(sampled).filter(|&c| c < v2.len()) {
        let e = PortableTrace::load_any(&v2[..cut]).expect_err("short read must be rejected");
        assert_eq!(e.to_string(), e.to_string(), "cut {cut}"); // error formats without panicking
    }
    // … and the batch seam wraps a representative subset as `CorruptTrace`,
    // including a cut landing mid-varint in the chunk framing (one byte
    // past a quarter boundary is inside a frame varint for this corpus).
    for cut in [15, 16, 17, v2.len() / 4 + 1, v2.len() - 1] {
        assert_corrupt(
            &detect_any(&v2[..cut], &cfg).expect_err("short read must be rejected"),
            &format!("v2 cut {cut}"),
        );
    }

    // A reader that dribbles one byte per syscall must not busy-loop or
    // change the verdict: the pristine stream still parses.
    let dribble = std::io::BufReader::with_capacity(1, OneByte(&v2));
    let slow = PortableTrace::load_any(dribble).expect("dribbled pristine stream parses");
    assert_eq!(slow.trace.events.len(), pt.trace.events.len());
    // And a dribbled *truncated* stream is still a structured rejection.
    let cut = v2.len() / 2;
    let dribble = std::io::BufReader::with_capacity(1, OneByte(&v2[..cut]));
    assert_corrupt(
        &load_trace(dribble).expect_err("dribbled short read must be rejected"),
        "dribbled truncation",
    );
}

/// A `Read` that hands out one byte a call.
struct OneByte<'a>(&'a [u8]);

impl std::io::Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = 1.min(self.0.len()).min(buf.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// The small multi-chunk v2 file the damage sweeps below cut and flip.
fn damage_corpus() -> Vec<u8> {
    let pt = hook_trace(&mut RacyLoop(6));
    let mut v2 = Vec::new();
    pt.save_compressed(&mut v2, 8).expect("compressed save");
    v2
}

/// Every truncation of `v2`, then every single-bit flip of every byte.
fn damaged(v2: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..v2.len()).map(|cut| v2[..cut].to_vec());
    let flips = (0..v2.len() * 8).map(|i| {
        let mut bad = v2.to_vec();
        bad[i / 8] ^= 1 << (i % 8);
        bad
    });
    cuts.chain(flips)
}

/// Which `CorruptTrace` detail a damaged v2 stream reports: each truncation
/// point and each single-bit flip of every byte of a small multi-chunk file.
/// There is one way to read a chunk, `CompressedTraceReader::next_chunk`,
/// which checks the chunk's checksum before decoding it; the streaming tier
/// reads through it, so a checksum mismatch comes before any decode or
/// validation error of that chunk, and before anything the next chunk holds.
#[test]
fn damaged_v2_streams_report_the_pinned_detail() {
    let _g = lock();
    use stint_repro::batchdet::batch_detect_chunked_on;
    let v2 = damage_corpus();
    let pool = ThreadPool::new(2);
    let mut tally = std::collections::BTreeMap::<String, u32>::new();
    let mut details = String::new();
    for bad in damaged(&v2) {
        let detail = match batch_detect_chunked_on(&pool, &bad[..], &two_shards()) {
            Ok(out) => format!("ok, {} racy words", out.merged.racy_words.len()),
            Err(DetectorError::CorruptTrace { detail }) => detail,
            Err(e) => panic!("not a structured corruption: {e}"),
        };
        details.push_str(&detail);
        details.push('\n');
        // The tally groups details that differ only in their numbers.
        let shape: String = detail
            .chars()
            .map(|c| if c.is_ascii_digit() { '#' } else { c })
            .collect();
        *tally.entry(shape).or_default() += 1;
    }
    let tally: Vec<(&str, u32)> = tally.iter().map(|(k, &n)| (k.as_str(), n)).collect();
    let digest = stint_repro::ctrace::fnv1a(details.as_bytes());
    assert_eq!((v2.len(), tally.as_slice(), digest), PINNED_V2_DAMAGE);
}

/// The same sweep through the batch tier's one entry, which reads the magic
/// line itself: every damaged file is `Ok` or `CorruptTrace`, never another
/// error or a panic, and the pristine file dribbled one byte a read renders
/// the pristine report.
#[test]
fn damaged_streams_through_the_one_entry_are_ok_or_corrupt() {
    let _g = lock();
    let v2 = damage_corpus();
    let pool = ThreadPool::new(2);
    let detect = |r: &mut (dyn std::io::BufRead + Send)| batch_detect_any(&pool, r, &two_shards());
    let pristine = detect(&mut &v2[..]).expect("pristine file detects");
    assert!(!pristine.merged.is_race_free());
    for bad in damaged(&v2) {
        match detect(&mut &bad[..]) {
            Ok(_) | Err(DetectorError::CorruptTrace { .. }) => {}
            Err(e) => panic!("not a structured corruption: {e}"),
        }
    }
    let mut dribble = std::io::BufReader::with_capacity(1, OneByte(&v2));
    let slow = detect(&mut dribble).expect("dribbled pristine file detects");
    assert_eq!(slow.merged.render(), pristine.merged.render());
}

/// File length, details by shape, FNV-1a of every detail in order.
const PINNED_V2_DAMAGE: (usize, &[(&str, u32)], u64) = (
    536,
    &[
        ("bad magic: expected STINT-TRACE v#", 112),
        ("chunk checksum mismatch", 1452),
        ("failed to fill whole buffer", 13),
        ("header checksum mismatch", 2643),
        ("stream did not contain valid UTF-#", 22),
        ("trailing bytes in chunk", 6),
        ("truncated chunk frame", 68),
        ("truncated chunk payload", 141),
        ("truncated header", 325),
        ("truncated run", 29),
        ("unreasonable chunk length", 5),
        ("varint overflow", 8),
    ],
    13894247128861580440,
);
