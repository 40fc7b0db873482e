//! Round-trip property for the trace subsystem: recording a program,
//! serializing the trace, loading it back and replaying it must reproduce
//! the live run exactly — same race verdict, same racy words, and the same
//! `DetectorStats`. A replayed hook stream matches field for field: the
//! detector cannot tell it from the original execution. The strand-coalesced
//! trace `PortableTrace::record` stores hands the detector each strand's
//! runs instead of its hooks, so it matches on every field but the hook-side
//! counts: the intervals, the access-history work and the tables behind it.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use stint_repro::{
    detect, CompRtsDetector, DetectorStats, PortableTrace, RaceReport, StintDetector,
    StintFlatDetector, VanillaDetector, Variant,
};

mod common;
use common::{func_strategy, hook_trace, AstProgram};

/// The fields that count what the coalescer was fed — hooks, their bytes,
/// the words they set, the hooks its filter elided — which a coalesced
/// trace, one range per run, feeds differently.
const HOOK_SIDE: [&str; 7] = [
    "detector.read_hooks",
    "detector.read_hook_bytes",
    "detector.read_words",
    "detector.write_hooks",
    "detector.write_hook_bytes",
    "detector.write_words",
    "detector.hook_filter_hits",
];

fn beyond_the_hooks(s: &DetectorStats) -> Vec<(&'static str, u64)> {
    let fields = s.fields().into_iter();
    fields
        .filter(|(name, _)| !HOOK_SIDE.contains(name))
        .collect()
}

/// Replay `back` (what was loaded) against the live run: same report, and
/// every integer statistic — or, for a coalesced trace, every one beyond
/// the hook side (`ah_time`, a wall-clock duration, is the one field
/// legitimately allowed to differ either way). Replaying twice is
/// deterministic.
fn assert_replay_reproduces(
    back: &PortableTrace,
    live: &stint_repro::Outcome,
    hooks: bool,
) -> Result<(), TestCaseError> {
    let replayed = back.replay(StintDetector::new(RaceReport::default()));
    prop_assert_eq!(replayed.report.total, live.report.total);
    prop_assert_eq!(replayed.report.racy_words(), live.report.racy_words());
    if hooks {
        prop_assert_eq!(replayed.stats.fields(), live.stats.fields());
    } else {
        prop_assert_eq!(
            beyond_the_hooks(&replayed.stats),
            beyond_the_hooks(&live.stats)
        );
    }
    let again = back.replay(StintDetector::new(RaceReport::default()));
    prop_assert_eq!(again.report.racy_words(), replayed.report.racy_words());
    prop_assert_eq!(again.stats.fields(), replayed.stats.fields());
    Ok(())
}

/// Replay `pt` under `v`: the report.
fn replay_as(pt: &PortableTrace, v: Variant) -> RaceReport {
    let report = RaceReport::default();
    match v {
        Variant::Vanilla => pt.replay(VanillaDetector::new(false, report)).report,
        Variant::Compiler => pt.replay(VanillaDetector::new(true, report)).report,
        Variant::CompRts => pt.replay(CompRtsDetector::new(report)).report,
        Variant::Stint => pt.replay(StintDetector::new(report)).report,
        Variant::StintFlat => pt.replay(StintFlatDetector::new_flat(report)).report,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every variant finds the live run's racy words over the units
    /// `record` stores. The interval detectors also find the same number of
    /// races; `vanilla` and `compiler` report once per word per access, in
    /// access order, so their totals over a strand's runs (reads, then
    /// writes) need not match those over its hooks.
    #[test]
    fn every_variant_finds_the_live_racy_words_over_units(f in func_strategy(3)) {
        let units = PortableTrace::record(&mut AstProgram(&f));
        for v in [Variant::StintFlat].into_iter().chain(Variant::ALL) {
            let live = detect(&mut AstProgram(&f), v).report;
            let replayed = replay_as(&units, v);
            prop_assert_eq!(replayed.racy_words(), live.racy_words(), "{}", v);
            if !matches!(v, Variant::Vanilla | Variant::Compiler) {
                prop_assert_eq!(replayed.total, live.total, "{}", v);
            }
        }
    }

    /// Coalescing is idempotent: a strand's runs fed back into a coalescer
    /// come out as the same runs, in the same place.
    #[test]
    fn coalescing_a_coalesced_trace_changes_nothing(f in func_strategy(3)) {
        let hooks = hook_trace(&mut AstProgram(&f)).trace;
        let once = hooks.clone().coalesced();
        prop_assert_eq!(&once.clone().coalesced().events, &once.events);
        prop_assert!(once.len() <= hooks.len());
    }

    #[test]
    fn record_save_load_replay_reproduces_live_run(f in func_strategy(3)) {
        let live = detect(&mut AstProgram(&f), Variant::Stint);
        let hooks = hook_trace(&mut AstProgram(&f));
        let units = PortableTrace::record(&mut AstProgram(&f));
        for (pt, is_hooks) in [(&hooks, true), (&units, false)] {
            let mut buf = Vec::new();
            pt.save(&mut buf).expect("save to Vec");
            let back = PortableTrace::load_any(&buf[..]).expect("load what we saved");
            prop_assert_eq!(&back.trace.events, &pt.trace.events);
            prop_assert_eq!(&back.reach, &pt.reach);
            assert_replay_reproduces(&back, &live, is_hooks)?;
        }
    }

    #[test]
    fn compressed_save_load_replay_reproduces_live_run(
        f in func_strategy(3),
        chunk_events in prop_oneof![Just(1usize), 2usize..64, Just(4096usize)],
    ) {
        let live = detect(&mut AstProgram(&f), Variant::Stint);

        // The compressed v2 codec must be a lossless transport: whatever
        // chunk size it was written with, decoding recovers the exact event
        // stream and reachability snapshot, so the replayed detector produces
        // a byte-identical report and identical statistics.
        let hooks = hook_trace(&mut AstProgram(&f));
        let units = PortableTrace::record(&mut AstProgram(&f));
        for (pt, is_hooks) in [(&hooks, true), (&units, false)] {
            let mut buf = Vec::new();
            pt.save_compressed(&mut buf, chunk_events).expect("compressed save to Vec");
            let back = PortableTrace::load_any(&buf[..]).expect("load what we saved");
            prop_assert_eq!(&back.trace.events, &pt.trace.events);
            prop_assert_eq!(&back.reach, &pt.reach);
            assert_replay_reproduces(&back, &live, is_hooks)?;

            // A v1 save of the decoded trace round-trips back to the original
            // text — the two encodings describe the same trace.
            let mut v1_orig = Vec::new();
            pt.save(&mut v1_orig).expect("v1 save");
            let mut v1_back = Vec::new();
            back.save(&mut v1_back).expect("v1 save of decoded trace");
            prop_assert_eq!(v1_orig, v1_back);
        }
    }
}
