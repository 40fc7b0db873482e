//! Workspace-level end-to-end tests through the public umbrella API: every
//! benchmark verifies its output under every variant (`tests/detect.rs`
//! checks that it detects clean); the outcome metadata is coherent; scales
//! construct correctly.

use stint_repro::suite::{Scale, Workload, NAMES};
use stint_repro::{detect, Variant};

mod common;
use common::VARIANTS;

#[test]
fn every_benchmark_clean_and_correct_via_public_api() {
    for name in NAMES {
        for v in VARIANTS {
            let mut w = Workload::by_name(name, Scale::Test);
            let o = detect(&mut w, v);
            w.verify().unwrap_or_else(|e| panic!("{name}/{v}: {e}"));
            assert_eq!(o.variant, v);
            assert!(o.wall.as_nanos() > 0);
        }
    }
}

#[test]
fn outcome_counters_are_consistent() {
    for name in NAMES {
        // Flushes are timed inside the measured run.
        for v in [Variant::CompRts, Variant::Stint] {
            let o = detect(&mut Workload::by_name(name, Scale::Test), v);
            let (ah, wall) = (o.stats.ah_time, o.wall);
            assert!(ah <= wall, "{name}/{v}: access-hist {ah:?} > wall {wall:?}");
        }
        let mut w = Workload::by_name(name, Scale::Test);
        let o = detect(&mut w, Variant::Stint);
        // Each spawn creates child + continuation strands; each effective
        // sync creates one more; plus the root.
        let expected_max = 1 + 2 * o.counters.spawns + o.counters.effective_syncs;
        assert!(
            o.strands as u64 <= expected_max,
            "{name}: {} strands > bound {expected_max}",
            o.strands
        );
        assert!(o.counters.spawns > 0, "{name}: no spawns");
        assert!(o.counters.effective_syncs > 0, "{name}: no effective syncs");
        // Coalescing can only shrink: intervals <= word accesses.
        assert!(o.stats.read.intervals <= o.stats.read.words, "{name}");
        assert!(o.stats.write.intervals <= o.stats.write.words, "{name}");
        // Deduplicated bytes cannot exceed total hook traffic.
        assert!(
            o.stats.read.interval_bytes <= o.stats.read.words * 4,
            "{name}"
        );
    }
}

#[test]
fn coalescing_reduces_access_history_pressure() {
    // The motivating claim of the paper: for coalescing-friendly benchmarks
    // the number of intervals is orders of magnitude below the number of
    // word accesses. heat is the paper's best case.
    let mut w = Workload::by_name("heat", Scale::Test);
    let o = detect(&mut w, Variant::Stint);
    let words = o.stats.total_words();
    let ivs = o.stats.total_intervals();
    assert!(
        ivs * 50 <= words,
        "heat should coalesce >50x: {ivs} intervals for {words} words"
    );
}

#[test]
fn fft_coalesces_worst() {
    // And fft is the paper's adverse case: its interval reduction must be
    // visibly worse than heat's.
    let reduction = |name: &str| {
        let mut w = Workload::by_name(name, Scale::Test);
        let o = detect(&mut w, Variant::Stint);
        o.stats.total_words() as f64 / o.stats.total_intervals().max(1) as f64
    };
    let fft = reduction("fft");
    let heat = reduction("heat");
    assert!(
        heat > 1.5 * fft,
        "expected heat ({heat:.0}x) to coalesce much better than fft ({fft:.0}x)"
    );
}

#[test]
fn detectors_are_deterministic() {
    for name in ["sort", "mmul"] {
        // Note: interval and treap statistics depend on where the allocator
        // places the buffers (adjacent allocations can merge intervals), so
        // only the address-independent counters are compared.
        let run = || {
            let mut w = Workload::by_name(name, Scale::Test);
            let o = detect(&mut w, Variant::Stint);
            (
                o.strands,
                o.counters.spawns,
                o.counters.effective_syncs,
                o.stats.read.words,
                o.stats.write.words,
                o.stats.read.hooks,
                o.stats.write.hooks,
            )
        };
        assert_eq!(run(), run(), "{name}: nondeterministic detection stats");
    }
}

#[test]
fn workload_names_roundtrip() {
    for name in NAMES {
        let w = Workload::by_name(name, Scale::Test);
        assert_eq!(w.name(), name);
    }
}

#[test]
#[should_panic(expected = "unknown benchmark")]
fn unknown_workload_panics() {
    let _ = Workload::by_name("nope", Scale::Test);
}
