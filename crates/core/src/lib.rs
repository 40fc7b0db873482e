//! **STINT** — Sequential Treap-based INTerval race detector.
//!
//! A from-scratch Rust reproduction of *"Efficient Access History for Race
//! Detection"* (Xu, Zhou, Lee, Yin, Agrawal, Schardl — SPAA 2021): an
//! on-the-fly determinacy-race detector for fork-join programs whose access
//! history is maintained at the granularity of *intervals* rather than
//! individual memory words.
//!
//! # Quick start
//!
//! Write your fork-join program against the [`Cilk`] trait and hand it to
//! [`detect`]:
//!
//! ```
//! use stint::{detect, Variant, Cilk, CilkProgram};
//!
//! struct Racy;
//! impl CilkProgram for Racy {
//!     fn run<C: Cilk>(&mut self, ctx: &mut C) {
//!         ctx.spawn(|c| c.store(0x1000, 8)); // child writes 8 bytes
//!         ctx.store(0x1004, 4);              // continuation overlaps it
//!         ctx.sync();
//!     }
//! }
//!
//! let outcome = detect(&mut Racy, Variant::Stint);
//! assert!(!outcome.report.is_race_free());
//! ```
//!
//! # The four variants (paper Section 5)
//!
//! | Variant | Coalescing | Access history |
//! |---|---|---|
//! | [`Variant::Vanilla`]  | none                  | word-granularity hashmap |
//! | [`Variant::Compiler`] | compile-time          | word-granularity hashmap |
//! | [`Variant::CompRts`]  | compile-time + runtime| word-granularity hashmap |
//! | [`Variant::Stint`]    | compile-time + runtime| **interval treap** |
//!
//! plus [`Variant::StintFlat`], STINT over the `BTreeMap`-based reference
//! store — the oracle the treap is tested against.
//!
//! All variants share the SP-Order reachability component and report the
//! same set of racy words; they differ (exactly as in the paper) in how much
//! work the access history performs.

pub mod comprts;
pub mod ctrace;
pub mod journal;
pub mod report;
pub mod report_card;
pub mod stats;
pub mod stint_det;
pub mod timing;
pub mod trace;
pub mod vanilla;
pub mod varint;
pub mod witness;
pub mod word_logic;

pub use comprts::{CompRtsDetector, StrandCoalescer};
pub use ctrace::{
    load_compressed, save_compressed, CompressStats, CompressedTraceReader, EventRun,
    DEFAULT_CHUNK_EVENTS, MAGIC_V2,
};
pub use report::{Race, RaceKind, RaceReport};
pub use stats::{DetectorStats, Sided};
pub use stint_det::{IntervalDetector, IntervalHistory, StintDetector, StintFlatDetector};
pub use trace::{
    open_any, record, replay, sniff_magic, OpenTrace, PortableTrace, Trace, TraceEvent, TraceMagic,
    TraceOp, TraceRecorder, MAGIC_V1,
};
pub use vanilla::VanillaDetector;
pub use witness::{
    lineage_to_common, AccessEvidence, EventSpans, Provenance, Witness, WitnessChecker,
};

// Re-export the substrate surface users need.
pub use stint_cilk::{
    run_baseline, run_reach_only, run_with_detector, run_with_detector_r, BaseExec, Cilk,
    CilkProgram, Detector, ExecCounters, Executor, NopDetector,
};
pub use stint_faults::{DetectorError, FaultPlan, Resource, ScopedPlan};
pub use stint_ivtree::{FlatStore, Interval, IntervalStore, OpStats, Treap};
pub use stint_obs as obs;
pub use stint_shadow::WordIv;
pub use stint_sporder::{
    DePaReach, FrozenReach, ReachCache, ReachMaint, Reachability, SpOrder, StrandId,
};
pub use timing::{FlushTimer, TimingMode};

use std::time::Duration;

/// Which detector configuration to run (paper Section 5 naming).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Per-access checks, word-granularity hashmap, no coalescing.
    Vanilla,
    /// Compile-time coalescing only, word-granularity hashmap.
    Compiler,
    /// Compile-time + runtime coalescing, word-granularity hashmap.
    CompRts,
    /// Compile-time + runtime coalescing, interval-treap access history.
    Stint,
    /// STINT with the `BTreeMap` interval store (the test oracle).
    StintFlat,
}

impl Variant {
    pub const ALL: [Variant; 4] = [
        Variant::Vanilla,
        Variant::Compiler,
        Variant::CompRts,
        Variant::Stint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Variant::Vanilla => "vanilla",
            Variant::Compiler => "compiler",
            Variant::CompRts => "comp+rts",
            Variant::Stint => "STINT",
            Variant::StintFlat => "STINT(btree)",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Resource budgets for a detection run (default: unbounded).
///
/// When a budget is hit the detector does **not** abort: it records a
/// [`DetectorError::ResourceExhausted`] (surfaced via [`Outcome::degraded`])
/// and degrades soundly — it stops extending the access history past the
/// failure point, so every race it *does* report is real and the verdict is
/// complete up to the failure point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Cap, in bytes, on each shadow structure the variant allocates (the
    /// word-granularity access history and/or the per-strand coalescing bit
    /// tables). `None` = unbounded.
    pub max_shadow_bytes: Option<u64>,
    /// Cap on the total number of stored intervals (read tree + write tree;
    /// interval variants only). `None` = unbounded.
    pub max_intervals: Option<u64>,
}

impl ResourceBudget {
    pub const UNLIMITED: ResourceBudget = ResourceBudget {
        max_shadow_bytes: None,
        max_intervals: None,
    };

    /// Budget with the shadow cap given in whole mebibytes (CLI
    /// `--max-shadow-mb`).
    pub fn with_shadow_mb(mut self, mb: u64) -> Self {
        self.max_shadow_bytes = Some(mb.saturating_mul(1 << 20));
        self
    }

    pub fn with_max_intervals(mut self, n: u64) -> Self {
        self.max_intervals = Some(n);
        self
    }
}

/// Which reachability substrate maintains series/parallel order during a
/// sequential detection run. Both substrates answer every query identically
/// (differentially enforced in `tests/prop_depa.rs`); they differ in
/// maintenance mechanics — SP-Order relabels mutable order-maintenance
/// lists, DePa publishes immutable depth-vector timestamps whose queries
/// are lock-free (which is what lets `stint-batchdet`'s online mode fan
/// detection out over a shared `&DePaReach`).
///
/// No user-facing option picks it: the sequential tier runs SP-Order. The
/// DePa arm stays only because the repo benchmark's `batchdet.online.w1_s`
/// baseline names it (sequential STINT over the substrate online detection
/// uses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReachKind {
    /// SP-Order over the labelled OM list (the default).
    SpOrder,
    /// Relabel-free DePa depth-vector timestamps.
    DePa,
}

/// Options for [`detect_with`].
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub variant: Variant,
    /// Reachability substrate (default: SP-Order; DePa only for the
    /// benchmark's online baseline, see [`ReachKind`]).
    pub reach: ReachKind,
    /// Maintain the exact racy-word set (cheap for race-free programs; can
    /// be large for heavily racy ones).
    pub collect_racy_words: bool,
    /// Resource budgets (default: unbounded).
    pub budget: ResourceBudget,
    /// Capture verifiable race witnesses (see [`witness`]). Off by default;
    /// disabled capture costs one `Option` discriminant check per hook.
    pub witnesses: bool,
}

impl Config {
    pub fn new(variant: Variant) -> Self {
        Config {
            variant,
            reach: ReachKind::SpOrder,
            collect_racy_words: true,
            budget: ResourceBudget::UNLIMITED,
            witnesses: false,
        }
    }
}

/// Result of a detection run.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub variant: Variant,
    pub report: RaceReport,
    pub stats: DetectorStats,
    /// Wall-clock time of the instrumented, detected execution.
    pub wall: Duration,
    /// Strands created by the execution.
    pub strands: usize,
    /// Executor spawn/sync counters.
    pub counters: ExecCounters,
    /// `Some` if the detector hit a resource budget (or injected fault) and
    /// went dead partway through: the report is sound but only complete up
    /// to the failure point.
    pub degraded: Option<DetectorError>,
}

/// Race detect `p` with the given variant and default options.
pub fn detect<P: CilkProgram>(p: &mut P, variant: Variant) -> Outcome {
    detect_with(p, Config::new(variant))
}

/// Race detect `p` with explicit options.
pub fn detect_with<P: CilkProgram>(p: &mut P, cfg: Config) -> Outcome {
    match cfg.reach {
        ReachKind::SpOrder => detect_in::<P, SpOrder>(p, cfg),
        ReachKind::DePa => detect_in::<P, DePaReach>(p, cfg),
    }
}

/// The one place a [`Variant`] and a [`Config`] become a detector (its
/// report, witness capture and budget), bound to `$det` for `$run`: a macro,
/// so that `$run` expands at each variant's own detector type and can take
/// its `report` and `stats` apart. The arms stay written out, one a variant:
/// the benchmark binary's layout follows the live path's code shape.
macro_rules! with_detector {
    ($cfg:ident, |$det:ident| $run:expr) => {{
        let mut report = RaceReport::new(report::RACE_CAP, $cfg.collect_racy_words);
        report.set_witness_capture($cfg.witnesses);
        match $cfg.variant {
            Variant::Vanilla => {
                let $det = VanillaDetector::new(false, report).with_budget($cfg.budget);
                $run
            }
            Variant::Compiler => {
                let $det = VanillaDetector::new(true, report).with_budget($cfg.budget);
                $run
            }
            Variant::CompRts => {
                let $det = CompRtsDetector::new(report).with_budget($cfg.budget);
                $run
            }
            Variant::Stint => {
                let $det = StintDetector::new(report).with_budget($cfg.budget);
                $run
            }
            Variant::StintFlat => {
                let $det = StintFlatDetector::new_flat(report).with_budget($cfg.budget);
                $run
            }
        }
    }};
}

/// [`detect_with`] over an explicit reachability substrate. Every variant's
/// detector is generic over [`Reachability`], so the substrate threads
/// through unchanged.
fn detect_in<P: CilkProgram, R: ReachMaint>(p: &mut P, cfg: Config) -> Outcome {
    with_detector!(cfg, |det| {
        let (ex, wall) = run_traced::<_, _, R>(p, det);
        pack(cfg.variant, wall, ex, |d| (d.report, d.stats))
    })
}

/// [`run_with_detector_r`] under a `detect.execute` span — the instrumented
/// execution phase of every variant shows up as one top-level slice.
fn run_traced<P: CilkProgram, D: Detector<R>, R: ReachMaint>(
    p: &mut P,
    det: D,
) -> (Executor<D, R>, Duration) {
    let _span = stint_obs::span("detect.execute");
    run_with_detector_r(p, det)
}

/// Panic-safe [`detect_with`]: the whole instrumented execution runs under
/// `catch_unwind`, so an internal detector panic — including the structured
/// [`DetectorError::raise`] used by infallible deep paths such as
/// order-maintenance tag exhaustion — surfaces as an `Err` instead of
/// aborting the caller.
///
/// Resource-budget exhaustion does **not** produce an `Err`: the detectors
/// degrade soundly and finish, and the failure is reported through
/// [`Outcome::degraded`].
pub fn try_detect_with<P: CilkProgram>(p: &mut P, cfg: Config) -> Result<Outcome, DetectorError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| detect_with(p, cfg)))
        .map_err(DetectorError::from_panic)
}

/// [`try_detect_with`] over a recorded trace: the same detector, budget and
/// witness capture, fed by [`PortableTrace::replay`] over the trace's frozen
/// reachability instead of a live run, so [`Config::reach`] does not apply.
/// The outcome's `strands` are the snapshot's, its `counters` are zero and
/// its `wall` is the replay's.
pub fn try_replay_with(pt: &PortableTrace, cfg: Config) -> Result<Outcome, DetectorError> {
    let replay = || {
        with_detector!(cfg, |det| {
            let start = std::time::Instant::now();
            let d = pt.replay(det);
            Outcome {
                variant: cfg.variant,
                wall: start.elapsed(),
                strands: pt.reach.strand_count(),
                counters: ExecCounters::default(),
                degraded: Detector::<FrozenReach>::failure(&d),
                report: d.report,
                stats: d.stats,
            }
        })
    };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(replay))
        .map_err(DetectorError::from_panic)
}

fn pack<D: Detector<R>, R: ReachMaint>(
    variant: Variant,
    wall: Duration,
    ex: Executor<D, R>,
    split: impl FnOnce(D) -> (RaceReport, DetectorStats),
) -> Outcome {
    let _span = stint_obs::span("detect.report");
    let strands = ex.strand_count();
    let counters = ex.counters;
    let degraded = ex.det.failure();
    let (report, stats) = split(ex.into_detector());
    // Publish the run's statistics into the observability registry. The
    // registry values are the *same* numbers as `Outcome::stats` (both come
    // from `DetectorStats::fields`), so the metrics export and the figure
    // tables cannot disagree; across multiple runs in one process the
    // registry accumulates totals, as counters do.
    if stint_obs::is_enabled() {
        for (name, v) in stats.fields() {
            stint_obs::add(name, v);
        }
        stint_obs::add("detector.ah_time_ns", stats.ah_time.as_nanos() as u64);
        stint_obs::add("detector.wall_ns", wall.as_nanos() as u64);
        stint_obs::add("detector.strands", strands as u64);
        stint_obs::add("detector.races", report.total);
    }
    Outcome {
        variant,
        report,
        stats,
        wall,
        strands,
        counters,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fanout {
        racy: bool,
    }
    impl CilkProgram for Fanout {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            // 8 children write disjoint (or, if racy, overlapping) blocks.
            let step = if self.racy { 96 } else { 128 };
            for i in 0..8usize {
                ctx.spawn(move |c| {
                    c.store_range(i * step, 128);
                    c.load_range(i * step, 128);
                });
            }
            ctx.sync();
            ctx.load_range(0, 8 * 128);
        }
    }

    #[test]
    fn all_variants_agree_on_race_freedom() {
        for v in Variant::ALL {
            let o = detect(&mut Fanout { racy: false }, v);
            assert!(o.report.is_race_free(), "{v} reported spurious races");
        }
    }

    #[test]
    fn all_variants_agree_on_racy_words() {
        let expected = detect(&mut Fanout { racy: true }, Variant::Vanilla)
            .report
            .racy_words();
        assert!(!expected.is_empty());
        for v in [
            Variant::Compiler,
            Variant::CompRts,
            Variant::Stint,
            Variant::StintFlat,
        ] {
            let got = detect(&mut Fanout { racy: true }, v).report.racy_words();
            assert_eq!(got, expected, "{v} disagrees with vanilla");
        }
    }

    #[test]
    fn unbudgeted_runs_are_not_degraded() {
        for v in Variant::ALL {
            let o = detect(&mut Fanout { racy: true }, v);
            assert!(o.degraded.is_none(), "{v} degraded without a budget");
        }
    }

    #[test]
    fn shadow_budget_degrades_soundly() {
        // A zero-byte shadow budget exhausts on the first page: the run must
        // still finish, report no false races, and surface the failure.
        for v in Variant::ALL {
            let mut cfg = Config::new(v);
            cfg.budget.max_shadow_bytes = Some(0);
            let o = detect_with(&mut Fanout { racy: false }, cfg);
            assert!(o.report.is_race_free(), "{v} fabricated races when capped");
            let err = o.degraded.expect("zero budget must exhaust");
            assert_eq!(err.exit_code(), 3, "{v}: {err}");
        }
    }

    #[test]
    fn interval_budget_freezes_history() {
        let mut cfg = Config::new(Variant::Stint);
        cfg.budget.max_intervals = Some(1);
        let o = detect_with(&mut Fanout { racy: false }, cfg);
        assert!(o.report.is_race_free());
        assert!(
            matches!(
                o.degraded,
                Some(DetectorError::ResourceExhausted {
                    resource: Resource::Intervals,
                    limit: 1,
                    ..
                })
            ),
            "unexpected failure: {:?}",
            o.degraded
        );
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let expected = detect(&mut Fanout { racy: true }, Variant::Stint)
            .report
            .racy_words();
        let mut cfg = Config::new(Variant::Stint);
        cfg.budget = ResourceBudget::UNLIMITED
            .with_shadow_mb(64)
            .with_max_intervals(1 << 20);
        let o = detect_with(&mut Fanout { racy: true }, cfg);
        assert!(o.degraded.is_none());
        assert_eq!(o.report.racy_words(), expected);
    }

    #[test]
    fn try_detect_passes_through_clean_runs() {
        let o = try_detect_with(&mut Fanout { racy: false }, Config::new(Variant::Stint))
            .expect("clean run must not error");
        assert!(o.report.is_race_free());
    }

    #[test]
    fn try_detect_catches_panics_as_poisoned() {
        struct Exploding;
        impl CilkProgram for Exploding {
            fn run<C: Cilk>(&mut self, ctx: &mut C) {
                ctx.store(0, 4);
                panic!("boom");
            }
        }
        let err = try_detect_with(&mut Exploding, Config::new(Variant::Stint))
            .expect_err("panic must surface as an error");
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("boom"), "{err}");
    }

    #[test]
    fn outcome_carries_stats() {
        let o = detect(&mut Fanout { racy: false }, Variant::Stint);
        assert!(o.strands > 8);
        assert_eq!(o.counters.spawns, 8);
        assert!(o.stats.read.intervals > 0);
        assert!(o.stats.write.intervals > 0);
        assert!(o.stats.treap.ops > 0);
    }
}
