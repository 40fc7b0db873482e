//! Detection-level tests for the benchmark suite: every real benchmark is
//! determinacy-race-free under every detector variant (no false positives),
//! every seeded bug is caught by every variant (no false negatives), and
//! all variants agree on the racy words (the harness's live and replay
//! tiers over one recorded hook stream).

use std::cell::RefCell;

use stint_repro::suite::buggy::WithInjectedRace;
use stint_repro::suite::buggy::{HeatMissingBarrier, MmulMissingSync, OverlappingMerge};
use stint_repro::suite::{Scale, Workload, BUGGY_NAMES, NAMES};
use stint_repro::{detect, CilkProgram, Config, ReachKind, Variant};
use stint_repro::{Detector, SpOrder, StrandId, TraceRecorder, UnitRecorder};

mod common;
use common::{check_program, live, Row, Src, VARIANTS};

/// Every variant live, and replaying the one recorded hook stream. A live
/// run allocates afresh, so it is compared by racy-word count; a replay by
/// racy words.
fn variants() -> Vec<Row> {
    let replays = VARIANTS.map(|v| Row::Replay(true, Src::Mem, v));
    live().into_iter().chain(replays).collect()
}

/// Check the named suite kernel, whether or not it fits one batch: its
/// racy words.
fn check_named(name: &str, rows: &[Row]) -> Vec<u64> {
    let make = || Workload::by_name(name, Scale::Test);
    check_program(&make, rows).unwrap_or_else(|e| panic!("{name}: {e:?}"))
}

/// The racy words every variant reports on the programs `make` builds; at
/// least one.
fn caught<P: CilkProgram>(make: &dyn Fn() -> P) -> Vec<u64> {
    let words = check_program(make, &variants()).unwrap_or_else(|e| panic!("{e:?}"));
    assert!(!words.is_empty(), "the seeded race is missed");
    words
}

#[test]
fn all_benchmarks_race_free_under_all_variants() {
    for name in NAMES {
        assert_eq!(check_named(name, &variants()), [], "{name}: false races");
    }
}

/// comp+rts and STINT feed one `StrandCoalescer`: they agree on what it
/// was fed and gave out, and on the strands they flushed.
#[test]
fn variants_agree_on_detection_stats_sanity() {
    for name in NAMES {
        let run = |v| detect(&mut Workload::by_name(name, Scale::Test), v);
        let o = run(Variant::Stint);
        let s = &o.stats;
        assert!(s.read.words > 0, "{name}: no reads observed");
        assert!(s.write.words > 0, "{name}: no writes observed");
        assert!(
            s.read.intervals <= s.read.words,
            "{name}: more intervals than word accesses"
        );
        assert!(s.treap.ops > 0, "{name}: treap never used");
        assert!(o.strands > 1, "{name}: no parallelism observed");
        let fed = |s: &stint_repro::DetectorStats| {
            format!("{:?} {:?} {}", s.read, s.write, s.strands_flushed)
        };
        assert_eq!(fed(&run(Variant::CompRts).stats), fed(s), "{name}");
    }
}

/// The injected race's words are exactly the sentinel's of the instance the
/// oracle ran.
#[test]
fn injected_race_caught_by_all_variants() {
    let sentinels = RefCell::new(Vec::new());
    let words = caught(&|| {
        let w = WithInjectedRace::new(Workload::by_name("mmul", Scale::Test));
        sentinels.borrow_mut().push(w.sentinel_words());
        w
    });
    let sentinel = |&(lo, hi): &(u64, u64)| words == (lo..hi).collect::<Vec<u64>>();
    assert!(
        sentinels.borrow().iter().any(sentinel),
        "wrong words: {words:?}"
    );
}

#[test]
fn mmul_missing_sync_caught_and_variants_agree() {
    caught(&|| MmulMissingSync::new(16, 4, 5));
}

#[test]
fn heat_missing_barrier_caught() {
    caught(&|| HeatMissingBarrier::new(16, 16, 3, 4, 5));
}

/// The racy region is exactly the `overlap` shared output slots (4 slots ×
/// 2 words each).
#[test]
fn overlapping_merge_caught_with_exact_region() {
    let words = caught(&|| OverlappingMerge::new(64, 4, 5));
    assert_eq!(words.len(), 8, "wrong racy region size");
}

/// The relabel-free DePa substrate under every sequential detector reports
/// SP-Order's racy words on each seeded bug.
#[test]
fn depa_reports_the_sporder_races_under_every_variant() {
    let depa = VARIANTS.map(|v| {
        let reach = ReachKind::DePa;
        Row::Live(Config {
            reach,
            ..Config::new(v)
        })
    });
    for name in BUGGY_NAMES {
        assert!(!check_named(name, &depa).is_empty(), "{name}: no race");
    }
}

/// Fixing each bug removes all reports (the clean counterparts above), and
/// detection does not perturb results: outputs under detection match the
/// baseline run exactly (identical instruction streams).
#[test]
fn detection_does_not_perturb_results() {
    for name in NAMES {
        let mut base = Workload::by_name(name, Scale::Test);
        stint_repro::run_baseline(&mut base);
        let mut det = Workload::by_name(name, Scale::Test);
        detect(&mut det, Variant::Stint);
        let same = match (&base, &det) {
            (Workload::Mmul(a), Workload::Mmul(b)) => a.result() == b.result(),
            (Workload::Sort(a), Workload::Sort(b)) => a.result() == b.result(),
            (Workload::Heat(a), Workload::Heat(b)) => a.result() == b.result(),
            (Workload::Fft(a), Workload::Fft(b)) => a.result() == b.result(),
            (Workload::Chol(a), Workload::Chol(b)) => a.factor() == b.factor(),
            (Workload::Stra(a), Workload::Stra(b)) => a.result() == b.result(),
            (Workload::Straz(a), Workload::Straz(b)) => a.result_rowmajor() == b.result_rowmajor(),
            _ => unreachable!(),
        };
        assert!(same, "{name}: detection changed the computed result");
    }
}

/// Hands every hook of one run to both recorders.
#[derive(Default)]
struct Tee {
    hooks: TraceRecorder,
    units: UnitRecorder,
}

impl Detector for Tee {
    fn load(&mut self, s: StrandId, addr: usize, bytes: usize, r: &SpOrder) {
        self.hooks.load(s, addr, bytes, r);
        self.units.load(s, addr, bytes, r);
    }
    fn store(&mut self, s: StrandId, addr: usize, bytes: usize, r: &SpOrder) {
        self.hooks.store(s, addr, bytes, r);
        self.units.store(s, addr, bytes, r);
    }
    fn load_range(&mut self, s: StrandId, addr: usize, bytes: usize, r: &SpOrder) {
        self.hooks.load_range(s, addr, bytes, r);
        self.units.load_range(s, addr, bytes, r);
    }
    fn store_range(&mut self, s: StrandId, addr: usize, bytes: usize, r: &SpOrder) {
        self.hooks.store_range(s, addr, bytes, r);
        self.units.store_range(s, addr, bytes, r);
    }
    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, r: &SpOrder) {
        self.hooks.free(s, addr, bytes, r);
        self.units.free(s, addr, bytes, r);
    }
    fn strand_end(&mut self, s: StrandId, r: &SpOrder) {
        self.hooks.strand_end(s, r);
        self.units.strand_end(s, r);
    }
}

/// `PortableTrace::record` coalesces each strand as it closes: on every
/// kernel it stores the coalesced form of the same run's hook stream, and
/// counts that stream's hooks. A kernel allocates afresh on every run, so
/// both recorders watch one run.
#[test]
fn recorded_units_are_the_coalesced_hook_stream_on_every_kernel() {
    for name in NAMES.into_iter().chain(BUGGY_NAMES) {
        let mut w = Workload::by_name(name, Scale::Test);
        let (ex, _) = stint_repro::run_with_detector(&mut w, Tee::default());
        let Tee { hooks, units } = ex.det;
        assert_eq!(
            units.hooks(),
            hooks.trace.len() as u64,
            "{name}: hook count"
        );
        let want = hooks.trace.coalesced().events;
        assert!(want.len() > 1, "{name}: nothing recorded");
        assert!(units.trace.events == want, "{name}: other units");
    }
}
