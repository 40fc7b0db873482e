//! Property battery for the race-provenance plane: on generated programs
//! every witness a detector attaches passes the independent
//! [`WitnessChecker`] against the recorded trace, names the strands of a
//! race sequential STINT reports, and survives the batch merge and the serve
//! wire byte-identically for every shard count (the harness's witnessed
//! rows) — while any tampered witness is rejected.

use proptest::prelude::*;
use stint_repro::batchdet::{batch_detect, BatchConfig};
use stint_repro::{Config, PortableTrace, Race, Variant, WitnessChecker, DEFAULT_CHUNK_EVENTS};

mod common;
use common::{batch, check, func_strategy, Program, Row, Src};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential detection with capture on, checked against the hook
    /// stream — the one whose indices a live run's event ids are.
    #[test]
    fn sequential_witnesses_verify_and_match_oracle(f in func_strategy(3)) {
        check(&f, 0, &[Row::Live(Config::new(Variant::Stint)).witnessed()])?;
    }

    /// The batch merge and a served session for K ∈ {1, 2, 7, 16}. The
    /// recorded trace is strand-coalesced, so its event ids are unit indices
    /// and the conflicting access the checker finds in a span is a range.
    #[test]
    fn batch_witnesses_verify_for_every_k(f in func_strategy(3)) {
        let served = |k| Row::Serve(Src::V2(DEFAULT_CHUNK_EVENTS), k);
        let rows = [1, 2, 7, 16].map(|k| [batch(false, Src::Mem, k, 2, 0).witnessed(), served(k)]);
        check(&f, 0, rows.as_flattened())?;
    }

    /// Adversarial integrity: flipping the order evidence, truncating the
    /// lineage, or relocating the event span of a genuine witness must each
    /// be caught by the checker.
    #[test]
    fn tampered_witnesses_are_rejected(f in func_strategy(3)) {
        let pt = PortableTrace::record(&mut Program::new(&f, 0, false));
        let cfg = BatchConfig { shards: 4, workers: 2, witnesses: true, ..BatchConfig::default() };
        let out = batch_detect(&pt, &cfg).expect("clean batch run");
        prop_assume!(!out.merged.regions.is_empty());
        let checker = WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
        let genuine: &Race = &out.merged.regions[0];
        prop_assert!(checker.check(genuine).is_ok());

        // Order bits inverted: contradicts the frozen rank permutations.
        let mut r = genuine.clone();
        let w = r.witness.as_mut().expect("witnessed");
        (w.prev_before_eng, w.prev_before_heb) = (!w.prev_before_eng, !w.prev_before_heb);
        prop_assert!(checker.check(&r).is_err(), "inverted order bits accepted");

        // Lineage chopped to just the endpoint: no longer reaches the
        // common spawn-tree ancestor.
        let mut r = genuine.clone();
        let w = r.witness.as_mut().expect("witnessed");
        prop_assume!(w.prev_lineage.len() > 1);
        w.prev_lineage.truncate(1);
        prop_assert!(checker.check(&r).is_err(), "truncated lineage accepted");

        // Event span relocated past the end of the trace: claims evidence
        // that does not exist.
        let mut r = genuine.clone();
        let (w, n) = (r.witness.as_mut().expect("witnessed"), pt.trace.len() as u64);
        (w.cur.first_event, w.cur.last_event, w.cur.event) = (n + 10, n + 20, None);
        prop_assert!(checker.check(&r).is_err(), "out-of-trace span accepted");
    }
}
