//! Chaos suite: every benchmark run under every fault class must end in a
//! correct race verdict or a structured [`DetectorError`] — never an
//! escaping panic, and never a silently missed race on the buggy suite
//! (a missed race is only permitted when the run *reports* degradation).
//!
//! Fault classes exercised (ISSUE: ≥ 4):
//!   1. `om`     — narrowed tag space + forced relabel storms
//!   2. `shadow` — page/chunk caps and simulated OOM
//!   3. `ivtree` — worst-case (degenerate) treap priorities
//!   4. `cilkrt` — worker spawn failures and startup deaths
//!
//! plus the injected flush panic that drives the poisoned-session path.
//!
//! The fault plan is process-global, so this suite lives in its own test
//! binary and serializes every test on [`lock`].

use std::sync::{Mutex, MutexGuard, OnceLock};
use stint_repro::batchdet::{batch_detect_any, new_pool, BatchConfig, BatchOutcome};
use stint_repro::cilkrt::ThreadPool;
use stint_repro::suite::buggy::{HeatMissingBarrier, MmulMissingSync, OverlappingMerge};
use stint_repro::suite::{Scale, Workload};
use stint_repro::{
    try_detect_with, CilkProgram, Config, DetectorError, FaultPlan, Resource, ScopedPlan, Variant,
};

mod common;
use common::hook_trace;

fn lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A trace stream of either format through the batch tier's one entry, on a
/// pool built from `cfg`.
fn detect_any(mut bytes: &[u8], cfg: &BatchConfig) -> Result<BatchOutcome, DetectorError> {
    let pool = new_pool(cfg.workers, cfg.steal_seed);
    batch_detect_any(&pool, &mut bytes, cfg)
}

/// Racy-word count plus the degradation marker of one panic-safe detection
/// run. Counts, not addresses: the benchmarks race on heap buffers, so the
/// absolute racy words shift between fresh program instances.
type Verdict = Result<(usize, Option<DetectorError>), DetectorError>;

fn run_one<P: CilkProgram>(mut p: P, v: Variant) -> Verdict {
    let o = try_detect_with(&mut p, Config::new(v))?;
    Ok((o.report.racy_words().len(), o.degraded))
}

/// The chaos corpus: clean paper benchmarks and the seeded-bug suite. Each
/// entry builds a fresh program per run (detection consumes the program).
#[allow(clippy::type_complexity)]
fn programs() -> Vec<(&'static str, bool, Box<dyn Fn(Variant) -> Verdict>)> {
    vec![
        (
            "mmul",
            false,
            Box::new(|v| run_one(Workload::by_name("mmul", Scale::Test), v)),
        ),
        (
            "sort",
            false,
            Box::new(|v| run_one(Workload::by_name("sort", Scale::Test), v)),
        ),
        (
            "buggy-mmul",
            true,
            Box::new(|v| run_one(MmulMissingSync::new(16, 4, 7), v)),
        ),
        (
            "buggy-heat",
            true,
            Box::new(|v| run_one(HeatMissingBarrier::new(16, 16, 3, 4, 7), v)),
        ),
        (
            "buggy-merge",
            true,
            Box::new(|v| run_one(OverlappingMerge::new(64, 4, 7), v)),
        ),
    ]
}

fn healthy_count(run: &dyn Fn(Variant) -> Verdict, v: Variant) -> usize {
    let (n, degraded) = run(v).expect("healthy run must not fail");
    assert!(degraded.is_none(), "healthy run must not degrade");
    n
}

/// Fault class 1 (`om`): a narrowed tag universe either survives all forced
/// relabels with an exact verdict, or fails *structurally* with an OmTags
/// resource error — never with an arbitrary panic.
#[test]
fn om_tag_pressure_yields_verdict_or_structured_error() {
    let _g = lock();
    for bits in [8u32, 12, 16] {
        for (name, _racy, run) in programs() {
            let healthy = healthy_count(run.as_ref(), Variant::Stint);
            let _plan = ScopedPlan::install(FaultPlan {
                om_tag_bits: Some(bits),
                ..Default::default()
            });
            match run(Variant::Stint) {
                Ok((n, degraded)) => {
                    assert!(degraded.is_none(), "{name}@{bits}: om faults set no budget");
                    assert_eq!(n, healthy, "{name}@{bits}: verdict drifted");
                }
                Err(e) => {
                    assert!(
                        matches!(
                            e,
                            DetectorError::ResourceExhausted {
                                resource: Resource::OmTags,
                                ..
                            }
                        ),
                        "{name}@{bits}: unexpected failure {e}"
                    );
                    assert_eq!(e.exit_code(), 3);
                }
            }
        }
    }
}

/// Fault class 1 (`om`), storm flavor: forced relabel passes are a pure
/// perf fault — verdicts must be bit-for-bit identical.
#[test]
fn om_relabel_storms_keep_verdicts_exact() {
    let _g = lock();
    for (name, _racy, run) in programs() {
        for v in [Variant::Vanilla, Variant::Stint] {
            let healthy = healthy_count(run.as_ref(), v);
            let _plan = ScopedPlan::install(FaultPlan {
                om_relabel_storm: Some(2),
                seed: 42,
                ..Default::default()
            });
            let (n, degraded) = run(v).expect("storms must not abort");
            assert!(degraded.is_none(), "{name}/{v}: storms set no budget");
            assert_eq!(n, healthy, "{name}/{v}: storm changed the verdict");
        }
    }
}

/// Fault class 2 (`shadow`): allocation caps and simulated OOM degrade
/// soundly — clean programs never gain a false race, buggy programs either
/// still report races or report the degradation.
#[test]
fn shadow_exhaustion_degrades_soundly() {
    let _g = lock();
    let plans = [
        FaultPlan {
            shadow_page_cap: Some(2),
            ..Default::default()
        },
        FaultPlan {
            shadow_oom_at: Some(4),
            seed: 7,
            ..Default::default()
        },
    ];
    for plan in plans {
        for (name, racy, run) in programs() {
            for v in [Variant::Vanilla, Variant::CompRts, Variant::Stint] {
                let _plan = ScopedPlan::install(plan.clone());
                let (n, degraded) = run(v)
                    .unwrap_or_else(|e| panic!("{name}/{v}: shadow faults must not abort: {e}"));
                if racy {
                    assert!(
                        n > 0 || degraded.is_some(),
                        "{name}/{v}: race silently missed without a degradation report"
                    );
                } else {
                    assert_eq!(
                        n, 0,
                        "{name}/{v}: fabricated {n} racy words under shadow faults"
                    );
                }
                if let Some(e) = degraded {
                    assert_eq!(e.exit_code(), 3, "{name}/{v}: {e}");
                }
            }
        }
    }
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

/// Fault class 2 (`shadow`), through the hook lane: [`FiveChunks`] under a
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
    let fault = FaultPlan {
        shadow_oom_at: Some(1),
        ..Default::default()
    };
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

/// Fault class 3 (`ivtree`): worst-case treap priorities (a list-shaped
/// tree) are a pure perf fault — verdicts must be identical.
#[test]
fn degenerate_treap_keeps_verdicts_exact() {
    let _g = lock();
    for (name, _racy, run) in programs() {
        let healthy = healthy_count(run.as_ref(), Variant::Stint);
        let _plan = ScopedPlan::install(FaultPlan {
            treap_degenerate: true,
            ..Default::default()
        });
        let (n, degraded) = run(Variant::Stint).expect("degenerate treap must not abort");
        assert!(degraded.is_none(), "{name}: treap fault sets no budget");
        assert_eq!(n, healthy, "{name}: tree shape changed the verdict");
    }
}

/// Fault class 3 (`ivtree`), exhaustion flavor: overrunning the treap's node
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

/// Fault class 3 (`ivtree`) on the bulk path: a list-shaped treap, and an
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

/// Fault class 4 (`cilkrt`): worker spawn failures and startup deaths leave
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
    let plans = [
        FaultPlan {
            worker_spawn_fail_from: Some(1),
            ..Default::default()
        },
        FaultPlan {
            worker_spawn_fail_from: Some(0),
            ..Default::default()
        },
        FaultPlan {
            worker_panic_from: Some(0),
            ..Default::default()
        },
    ];
    for plan in plans {
        let pool = {
            let _plan = ScopedPlan::install(plan.clone());
            ThreadPool::new(4)
        };
        assert_eq!(sum(&pool, 0, 10_000), expected, "plan {plan:?}");
    }
}

/// Poisoned-session path: an injected internal panic surfaces as a
/// structured `Poisoned` error with exit code 4, for every variant.
#[test]
fn injected_flush_panic_is_reported_as_poisoned() {
    let _g = lock();
    for v in Variant::ALL {
        let _plan = ScopedPlan::install(FaultPlan {
            panic_at_flush: Some(1),
            ..Default::default()
        });
        let e = run_one(Workload::by_name("sort", Scale::Test), v)
            .expect_err("injected panic must surface as an error");
        assert!(
            matches!(e, DetectorError::Poisoned { .. }),
            "{v}: unexpected failure {e}"
        );
        assert_eq!(e.exit_code(), 4);
        assert!(e.to_string().contains("injected flush panic"), "{v}: {e}");
    }
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
        assert!(matches!(e, DetectorError::CorruptTrace { .. }), "{e}");
        assert_eq!(e.exit_code(), 4);
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
    assert!(matches!(e, DetectorError::CorruptTrace { .. }), "{e}");
    assert!(e.to_string().contains("out of range"), "{e}");
    assert_eq!(e.exit_code(), 4);

    // Wrong format version.
    let versioned = good.replacen("STINT-TRACE v1", "STINT-TRACE v2", 1);
    let e = load_trace(versioned.as_bytes()).expect_err("wrong version must be rejected");
    assert!(matches!(e, DetectorError::CorruptTrace { .. }), "{e}");
    assert_eq!(e.exit_code(), 4);

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
        assert!(
            matches!(e, DetectorError::CorruptTrace { .. }),
            "cut at {frac}/4: {e}"
        );
        assert_eq!(e.exit_code(), 4);
    }

    // A single flipped bit in the middle of the stream trips a checksum
    // (or a bounds check) — never a panic, never a silent wrong verdict.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x20;
    let e =
        detect_any(&flipped[..], &cfg).expect_err("bit-flipped compressed trace must be rejected");
    assert!(matches!(e, DetectorError::CorruptTrace { .. }), "{e}");
    assert_eq!(e.exit_code(), 4);

    // And the pristine stream still detects cleanly.
    let out = detect_any(&good[..], &cfg).expect("pristine compressed trace detects");
    assert!(out.merged.is_race_free());
    assert!(out.ingest.is_some_and(|st| st.chunks > 1));
}

/// An injected flush panic inside a shard worker surfaces from the batch
/// fan-out as a structured `Poisoned` error (exit 4), through the pool's
/// panic-capturing join and the typed-panic protocol.
#[test]
fn batch_injected_flush_panic_is_poisoned() {
    let _g = lock();
    let mut w = Workload::by_name("sort", Scale::Test);
    let pt = stint_repro::PortableTrace::record(&mut w);
    let _plan = ScopedPlan::install(FaultPlan {
        panic_at_flush: Some(1),
        ..Default::default()
    });
    let cfg = stint_repro::batchdet::BatchConfig {
        shards: 4,
        workers: 2,
        steal_seed: 0,
        ..Default::default()
    };
    let e = stint_repro::batchdet::batch_detect(&pt, &cfg)
        .expect_err("injected shard panic must surface as an error");
    assert!(matches!(e, DetectorError::Poisoned { .. }), "{e}");
    assert_eq!(e.exit_code(), 4);
    assert!(e.to_string().contains("injected flush panic"), "{e}");
}

/// Batch detection under shadow caps degrades soundly per shard: a clean
/// trace never gains a false race, and any degradation is the structured
/// exit-3 resource error.
#[test]
fn batch_shadow_caps_degrade_soundly() {
    let _g = lock();
    let mut w = Workload::by_name("mmul", Scale::Test);
    let pt = stint_repro::PortableTrace::record(&mut w);
    let _plan = ScopedPlan::install(FaultPlan {
        shadow_page_cap: Some(2),
        ..Default::default()
    });
    let cfg = stint_repro::batchdet::BatchConfig {
        shards: 3,
        workers: 2,
        steal_seed: 0,
        ..Default::default()
    };
    let out = stint_repro::batchdet::batch_detect(&pt, &cfg)
        .expect("shadow caps must not abort the batch run");
    assert!(
        out.merged.is_race_free(),
        "fabricated races under shadow caps"
    );
    if let Some(e) = out.degraded {
        assert_eq!(e.exit_code(), 3, "{e}");
    }
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
    let plans = [
        FaultPlan {
            shadow_page_cap: Some(1),
            ..Default::default()
        },
        FaultPlan {
            shadow_oom_at: Some(1),
            ..Default::default()
        },
    ];
    for plan in plans {
        let (faulted, faulted_merge) = {
            let _plan = ScopedPlan::install(plan.clone());
            (
                PortableTrace::record(&mut FiveChunks),
                PortableTrace::record(&mut OverlappingMerge::new(64, 4, 7)),
            )
        };
        assert_eq!(faulted.trace.events, clean.trace.events, "{plan:?}");
        assert_eq!(racy(&faulted), racy(&clean), "{plan:?}");
        assert_eq!(merge(&faulted_merge), clean_merge, "{plan:?}");
    }
}

/// Fault class 4 (`cilkrt`) composed with batch: if every worker fails to
/// spawn, the fan-out runs sequentially on the degraded pool and the merged
/// verdict is still exact.
#[test]
fn batch_survives_worker_spawn_failures() {
    let _g = lock();
    let mut w = Workload::by_name("sort", Scale::Test);
    let pt = stint_repro::PortableTrace::record(&mut w);
    let healthy = stint_repro::batchdet::batch_detect(&pt, &Default::default())
        .expect("healthy batch run")
        .merged
        .render();
    let _plan = ScopedPlan::install(FaultPlan {
        worker_spawn_fail_from: Some(0),
        ..Default::default()
    });
    let cfg = stint_repro::batchdet::BatchConfig {
        shards: 4,
        workers: 4,
        steal_seed: 0,
        ..Default::default()
    };
    let out = stint_repro::batchdet::batch_detect(&pt, &cfg)
        .expect("degraded pool must still complete the batch");
    assert!(out.degraded.is_none());
    assert_eq!(
        out.merged.render(),
        healthy,
        "degraded pool changed verdict"
    );
}

/// Budgets compose with faults: a run that is both capped and stormed still
/// terminates with a sound verdict or structured error.
#[test]
fn combined_faults_and_budgets_stay_structured() {
    let _g = lock();
    let _plan = ScopedPlan::install(FaultPlan {
        om_relabel_storm: Some(3),
        shadow_page_cap: Some(2),
        treap_degenerate: true,
        seed: 1234,
        ..Default::default()
    });
    let mut cfg = Config::new(Variant::Stint);
    cfg.budget.max_intervals = Some(64);
    let mut w = Workload::by_name("mmul", Scale::Test);
    match try_detect_with(&mut w, cfg) {
        Ok(o) => {
            assert!(o.report.is_race_free(), "mmul is race-free: no false races");
            if let Some(e) = o.degraded {
                assert_eq!(e.exit_code(), 3, "{e}");
            }
        }
        Err(e) => panic!("combined faults must not abort: {e}"),
    }
}

/// One parallel-online detection run (`--online-parallel`) with the given
/// shard/worker geometry, returning the same verdict shape as [`run_one`].
fn run_online<P: CilkProgram>(mut p: P, workers: usize) -> Verdict {
    let cfg = stint_repro::batchdet::OnlineConfig {
        shards: 4,
        workers,
        steal_seed: 0,
        chunk_events: 64,
        witnesses: false,
        budget: Default::default(),
    };
    let o = stint_repro::batchdet::online_detect(&mut p, &cfg)?;
    Ok((o.merged.racy_words.len(), o.degraded))
}

/// Parallel-online under the injected flush panic: the poisoned-session
/// contract is identical to the sequential tier — a structured `Poisoned`
/// error with exit code 4, never an escaping panic and never a partial
/// report published from a poisoned engine.
#[test]
fn online_injected_flush_panic_is_poisoned() {
    let _g = lock();
    let plan = FaultPlan {
        panic_at_flush: Some(1),
        ..Default::default()
    };
    // Sequential contract first …
    let seq = {
        let _plan = ScopedPlan::install(plan.clone());
        run_one(Workload::by_name("sort", Scale::Test), Variant::Stint)
            .expect_err("sequential: injected panic must surface")
    };
    assert_eq!(seq.exit_code(), 4);
    // … then the online tier must match it for every worker count.
    for workers in [1usize, 2, 4] {
        let _plan = ScopedPlan::install(plan.clone());
        let e = run_online(Workload::by_name("sort", Scale::Test), workers)
            .expect_err("online: injected panic must surface as an error");
        assert!(
            matches!(e, DetectorError::Poisoned { .. }),
            "workers={workers}: unexpected failure {e}"
        );
        assert_eq!(e.exit_code(), 4, "workers={workers}");
        assert!(
            e.to_string().contains("injected flush panic"),
            "workers={workers}: {e}"
        );
    }
}

/// Parallel-online under shadow exhaustion: the degradation contract is the
/// sequential one — clean programs never gain a false race, buggy programs
/// either still report their races or report the degradation (exit 3);
/// a race is never silently lost.
#[test]
fn online_shadow_exhaustion_degrades_soundly() {
    let _g = lock();
    let plans = [
        FaultPlan {
            shadow_page_cap: Some(2),
            ..Default::default()
        },
        FaultPlan {
            shadow_oom_at: Some(4),
            seed: 7,
            ..Default::default()
        },
    ];
    for plan in plans {
        for workers in [1usize, 2] {
            {
                let _plan = ScopedPlan::install(plan.clone());
                let (n, degraded) = run_online(Workload::by_name("mmul", Scale::Test), workers)
                    .expect("online: shadow faults must not abort");
                assert_eq!(
                    n, 0,
                    "workers={workers}: fabricated races under shadow faults"
                );
                if let Some(e) = degraded {
                    assert_eq!(e.exit_code(), 3, "workers={workers}: {e}");
                }
            }
            {
                let _plan = ScopedPlan::install(plan.clone());
                let (n, degraded) = run_online(MmulMissingSync::new(16, 4, 7), workers)
                    .expect("online: shadow faults must not abort");
                assert!(
                    n > 0 || degraded.is_some(),
                    "workers={workers}: race silently missed without a degradation report"
                );
                if let Some(e) = degraded {
                    assert_eq!(e.exit_code(), 3, "workers={workers}: {e}");
                }
            }
        }
    }
}

/// Parallel-online under a shard interval budget: partial-but-sound with the
/// structured exit-3 marker, mirroring the sequential budget contract on the
/// buggy suite.
#[test]
fn online_interval_budget_degrades_soundly() {
    let _g = lock();
    let cfg = stint_repro::batchdet::OnlineConfig {
        shards: 4,
        workers: 2,
        steal_seed: 0,
        chunk_events: 64,
        witnesses: false,
        budget: stint_repro::ResourceBudget {
            max_intervals: Some(1),
            ..Default::default()
        },
    };
    let out = stint_repro::batchdet::online_detect(&mut MmulMissingSync::new(16, 4, 7), &cfg)
        .expect("budget trips degrade, not abort");
    let e = out.degraded.expect("one-interval budget must degrade");
    assert_eq!(e.exit_code(), 3, "{e}");
    // Degradation was reported, so a truncated race set is permitted — but
    // whatever is reported must be a subset of the true racy words.
    let full = run_one(MmulMissingSync::new(16, 4, 7), Variant::Stint)
        .expect("healthy run")
        .0;
    assert!(out.merged.racy_words.len() <= full);
}

/// Parallel-online composed with worker startup deaths: the pool degrades to
/// fewer (ultimately zero) stealing workers and the verdict stays exact —
/// byte-identical to the healthy online render.
#[test]
fn online_survives_worker_startup_panics() {
    let _g = lock();
    let cfg = stint_repro::batchdet::OnlineConfig {
        shards: 4,
        workers: 4,
        steal_seed: 0,
        chunk_events: 64,
        witnesses: false,
        budget: Default::default(),
    };
    let healthy = stint_repro::batchdet::online_detect(&mut MmulMissingSync::new(16, 4, 7), &cfg)
        .expect("healthy online run");
    assert!(!healthy.merged.racy_words.is_empty());
    for plan in [
        FaultPlan {
            worker_panic_from: Some(0),
            ..Default::default()
        },
        FaultPlan {
            worker_spawn_fail_from: Some(0),
            ..Default::default()
        },
    ] {
        let _plan = ScopedPlan::install(plan);
        let out = stint_repro::batchdet::online_detect(&mut MmulMissingSync::new(16, 4, 7), &cfg)
            .expect("degraded pool must still complete the online run");
        assert!(out.degraded.is_none());
        assert_eq!(
            out.merged.racy_words.len(),
            healthy.merged.racy_words.len(),
            "degraded pool changed the online verdict"
        );
    }
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
        let _plan = ScopedPlan::install(FaultPlan {
            panic_at_flush: Some(at),
            ..Default::default()
        });
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
        let _plan = ScopedPlan::install(FaultPlan {
            panic_at_flush: Some(1),
            ..Default::default()
        });
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
            assert!(
                matches!(e, DetectorError::CorruptTrace { .. }),
                "workers={workers} {what}: {e}"
            );
            assert_eq!(e.exit_code(), 4);
            let e = {
                let _plan = ScopedPlan::install(FaultPlan {
                    panic_at_flush: Some(1),
                    ..Default::default()
                });
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

/// Fault class 4 composed with the pipelined driver: every worker dies at
/// start-up while the session's `install` job sits in the injector. The
/// waiter — spinning or already parked — notices, runs the whole pipeline
/// inline (each `join` a serial elision), and the verdict is exact for both
/// sources.
#[test]
fn pipeline_survives_worker_startup_panics() {
    let _g = lock();
    use stint_repro::batchdet::{batch_detect_chunked_on, batch_detect_on};
    let (pt, v2, _, _) = racy_loop_v2();
    let healthy = batch_detect_on(&ThreadPool::new(2), &pt, &two_shards())
        .expect("healthy run")
        .merged
        .render();
    let pool = {
        let _plan = ScopedPlan::install(FaultPlan {
            worker_panic_from: Some(0),
            ..Default::default()
        });
        ThreadPool::new(2)
    };
    for round in 0..2 {
        let mem = batch_detect_on(&pool, &pt, &two_shards()).expect("in-memory on a dead pool");
        let chunked =
            batch_detect_chunked_on(&pool, &v2[..], &two_shards()).expect("chunked on a dead pool");
        assert!(mem.degraded.is_none() && chunked.degraded.is_none());
        assert_eq!(mem.merged.render(), healthy, "round {round}");
        assert_eq!(chunked.merged.render(), healthy, "round {round}");
    }
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

    fn assert_corrupt(e: DetectorError, what: &str) {
        assert!(
            matches!(e, DetectorError::CorruptTrace { .. }),
            "{what}: {e}"
        );
        assert_eq!(e.exit_code(), 4, "{what}");
    }

    // Zero-length input on both ingest seams.
    assert_corrupt(
        load_trace(&[][..]).expect_err("empty input must be rejected"),
        "empty load_trace",
    );
    let cfg = BatchConfig::default();
    assert_corrupt(
        detect_any(&[][..], &cfg).expect_err("empty input must be rejected"),
        "empty batch entry",
    );

    // EOF immediately after each magic line: v1 has no strand header yet,
    // v2 dies inside the first framing varint.
    for magic in ["STINT-TRACE v1\n", "STINT-TRACE v2\n", "STINT-TRACE v"] {
        assert_corrupt(
            load_trace(magic.as_bytes()).expect_err("bare magic must be rejected"),
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
            detect_any(&v2[..cut], &cfg).expect_err("short read must be rejected"),
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
        load_trace(dribble).expect_err("dribbled short read must be rejected"),
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
