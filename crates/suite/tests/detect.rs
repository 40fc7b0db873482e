//! Detection-level integration tests for the benchmark suite: every real
//! benchmark is determinacy-race-free under every detector variant (no false
//! positives), every buggy variant is caught by every variant (no false
//! negatives), and all variants agree on the racy words.

use stint::{detect, detect_with, Config, ReachKind, Variant};

/// Racy words are absolute heap addresses, which differ between program
/// instances; compare them relative to the region's first racy word.
fn rel(words: Vec<u64>) -> Vec<u64> {
    let base = words.first().copied().unwrap_or(0);
    words.into_iter().map(|w| w - base).collect()
}
use stint_suite::buggy::{HeatMissingBarrier, MmulMissingSync, OverlappingMerge, WithInjectedRace};
use stint_suite::{Scale, Workload, NAMES};

const VARIANTS: [Variant; 5] = [
    Variant::Vanilla,
    Variant::Compiler,
    Variant::CompRts,
    Variant::Stint,
    Variant::StintFlat,
];

#[test]
fn all_benchmarks_race_free_under_all_variants() {
    for name in NAMES {
        for v in VARIANTS {
            let mut w = Workload::by_name(name, Scale::Test);
            let o = detect(&mut w, v);
            assert!(
                o.report.is_race_free(),
                "{name} under {v}: {} false races, first: {:?}",
                o.report.total,
                o.report.races().first()
            );
            w.verify()
                .unwrap_or_else(|e| panic!("{name} under {v} produced wrong output: {e}"));
        }
    }
}

#[test]
fn variants_agree_on_detection_stats_sanity() {
    for name in NAMES {
        let mut w = Workload::by_name(name, Scale::Test);
        let o = detect(&mut w, Variant::Stint);
        let s = &o.stats;
        assert!(s.read.words > 0, "{name}: no reads observed");
        assert!(s.write.words > 0, "{name}: no writes observed");
        assert!(
            s.read.intervals <= s.read.words,
            "{name}: more intervals than word accesses"
        );
        assert!(s.treap.ops > 0, "{name}: treap never used");
        assert!(o.strands > 1, "{name}: no parallelism observed");
    }
}

#[test]
fn injected_race_caught_by_all_variants() {
    for v in VARIANTS {
        let mut w = WithInjectedRace::new(Workload::by_name("mmul", Scale::Test));
        let (lo, _hi) = w.sentinel_words();
        let o = detect(&mut w, v);
        assert!(!o.report.is_race_free(), "{v} missed the injected race");
        assert!(
            o.report.racy_words().contains(&lo),
            "{v} reported the wrong words"
        );
    }
}

#[test]
fn mmul_missing_sync_caught_and_variants_agree() {
    let mut expected: Option<Vec<u64>> = None;
    for v in VARIANTS {
        let o = detect(&mut MmulMissingSync::new(16, 4, 5), v);
        assert!(!o.report.is_race_free(), "{v} missed the missing-sync race");
        let words = rel(o.report.racy_words());
        match &expected {
            None => expected = Some(words),
            Some(e) => assert_eq!(&words, e, "{v} disagrees on racy words"),
        }
    }
}

#[test]
fn heat_missing_barrier_caught() {
    for v in VARIANTS {
        let o = detect(&mut HeatMissingBarrier::new(16, 16, 3, 4, 5), v);
        assert!(!o.report.is_race_free(), "{v} missed the missing barrier");
    }
}

#[test]
fn overlapping_merge_caught_with_exact_region() {
    let mut expected: Option<Vec<u64>> = None;
    for v in VARIANTS {
        let mut p = OverlappingMerge::new(64, 4, 5);
        let o = detect(&mut p, v);
        assert!(!o.report.is_race_free(), "{v} missed the overlapping merge");
        // The racy region is exactly the `overlap` shared output slots
        // (4 slots × 2 words each).
        let words = rel(o.report.racy_words());
        assert_eq!(words.len(), 8, "{v}: wrong racy region size");
        match &expected {
            None => expected = Some(words),
            Some(e) => assert_eq!(&words, e, "{v} disagrees"),
        }
    }
}

/// The relabel-free DePa substrate under every sequential detector reports
/// SP-Order's racy words and race totals on each seeded bug. Both runs use
/// one program instance: the seeded bugs' accesses do not depend on the
/// data, and heat's two grids sit at another distance in a fresh instance.
#[test]
fn depa_reports_the_sporder_races_under_every_variant() {
    for name in ["buggy-heat", "buggy-merge", "buggy-mmul"] {
        for v in VARIANTS {
            let mut w = Workload::by_name(name, Scale::Test);
            let mut run = |reach| {
                let o = detect_with(
                    &mut w,
                    Config {
                        reach,
                        ..Config::new(v)
                    },
                );
                (rel(o.report.racy_words()), o.report.total)
            };
            let sporder = run(ReachKind::SpOrder);
            assert!(!sporder.0.is_empty(), "{name} under {v}: no race");
            assert_eq!(run(ReachKind::DePa), sporder, "{name} under {v}");
        }
    }
}

/// Fixing each bug removes all reports (the clean counterparts above), and
/// detection does not perturb results: outputs under detection match the
/// baseline run exactly (identical instruction streams).
#[test]
fn detection_does_not_perturb_results() {
    for name in NAMES {
        let mut base = Workload::by_name(name, Scale::Test);
        stint::run_baseline(&mut base);
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
