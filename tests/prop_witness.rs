//! Property battery for the race-provenance plane: on random fork-join
//! programs, every witness the detector attaches must (a) pass the
//! independent [`WitnessChecker`] against the recorded trace, (b) agree
//! with the brute-force spdag oracle (the witnessed strands really are
//! parallel and every reported word really is racy), and (c) survive the
//! batch merge byte-identically for every shard count — while any tampered
//! witness is rejected.

use proptest::prelude::*;
use stint_repro::batchdet::{batch_detect, BatchConfig};
use stint_repro::{try_detect_with, Config, PortableTrace, Race, Variant, WitnessChecker};
use stint_spdag::simulate;

mod common;
use common::{func_strategy, hook_trace, AstProgram};

fn witness_cfg(shards: usize) -> BatchConfig {
    BatchConfig {
        shards,
        workers: 2,
        witnesses: true,
        ..BatchConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential detection with capture on: every kept race carries a
    /// witness, the checker re-validates it against an independently
    /// recorded hook stream — the one whose indices a live run's event ids
    /// are — checking order bits against the frozen rank permutations
    /// (disagreeing orders *are* SP-parallelism), lineage against the spawn
    /// tree, spans against the concrete trace — and the brute-force spdag
    /// oracle confirms every word in the witnessed region is genuinely racy.
    /// (The oracle numbers strands in its own unfolding order, so the
    /// word-level check is the strand-id-agnostic point of agreement.)
    #[test]
    fn sequential_witnesses_verify_and_match_oracle(f in func_strategy(3)) {
        let sim = simulate(&f);
        prop_assume!(sim.strand_count() <= 250);
        let oracle: std::collections::BTreeSet<u64> =
            sim.racy_words().into_iter().collect();
        let mut cfg = Config::new(Variant::Stint);
        cfg.witnesses = true;
        let o = try_detect_with(&mut AstProgram(&f), cfg).expect("clean run");
        let pt = hook_trace(&mut AstProgram(&f));
        let checker = WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
        for race in o.report.races() {
            let w = race
                .witness
                .as_ref()
                .expect("capture on: every kept race must carry a witness");
            prop_assert!(checker.check(race).is_ok(),
                "checker rejected a live witness: {:?}",
                checker.check(race).err());
            prop_assert_eq!(w.prev.strand, race.prev);
            prop_assert_eq!(w.cur.strand, race.cur);
            for word in race.word_lo..race.word_hi {
                prop_assert!(oracle.contains(&word),
                    "witnessed word {word:#x} is not racy per the oracle");
            }
        }
    }

    /// The batch merge preserves witnesses for every shard count: each
    /// merged region's witness passes the checker, and the witnessed
    /// rendering is byte-identical across K — merge-time capture from the
    /// global span table cannot depend on the sharding. The recorded trace
    /// is strand-coalesced, so its event ids are unit indices and the
    /// conflicting access the checker finds in a span is a range.
    #[test]
    fn batch_witnesses_verify_for_every_k(f in func_strategy(3)) {
        let sim = simulate(&f);
        prop_assume!(sim.strand_count() <= 250);
        let oracle: std::collections::BTreeSet<u64> =
            sim.racy_words().into_iter().collect();
        let pt = PortableTrace::record(&mut AstProgram(&f));
        let checker = WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
        let baseline = batch_detect(&pt, &witness_cfg(1))
            .expect("clean batch run")
            .merged
            .render();
        for k in [1usize, 2, 7, 16] {
            let out = batch_detect(&pt, &witness_cfg(k)).expect("clean batch run");
            prop_assert_eq!(&out.merged.render(), &baseline, "K={}", k);
            for race in &out.merged.regions {
                prop_assert!(race.witness.is_some(),
                    "K={}: merged region lost its witness", k);
                prop_assert!(checker.check(race).is_ok(),
                    "K={}: checker rejected a merged witness: {:?}",
                    k, checker.check(race).err());
                for word in race.word_lo..race.word_hi {
                    prop_assert!(oracle.contains(&word),
                        "K={}: witnessed word {word:#x} not racy per the oracle", k);
                }
            }
        }
    }

    /// Adversarial integrity: flipping the order evidence, truncating the
    /// lineage, or relocating the event span of a genuine witness must each
    /// be caught by the checker.
    #[test]
    fn tampered_witnesses_are_rejected(f in func_strategy(3)) {
        let pt = PortableTrace::record(&mut AstProgram(&f));
        let out = batch_detect(&pt, &witness_cfg(4)).expect("clean batch run");
        prop_assume!(!out.merged.regions.is_empty());
        let checker = WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
        let genuine: &Race = &out.merged.regions[0];
        prop_assert!(checker.check(genuine).is_ok());

        // Order bits inverted: contradicts the frozen rank permutations.
        let mut r = genuine.clone();
        {
            let w = r.witness.as_mut().expect("witnessed");
            w.prev_before_eng = !w.prev_before_eng;
            w.prev_before_heb = !w.prev_before_heb;
        }
        prop_assert!(checker.check(&r).is_err(), "inverted order bits accepted");

        // Lineage chopped to just the endpoint: no longer reaches the
        // common spawn-tree ancestor.
        let mut r = genuine.clone();
        {
            let w = r.witness.as_mut().expect("witnessed");
            prop_assume!(w.prev_lineage.len() > 1);
            w.prev_lineage.truncate(1);
        }
        prop_assert!(checker.check(&r).is_err(), "truncated lineage accepted");

        // Event span relocated past the end of the trace: claims evidence
        // that does not exist.
        let mut r = genuine.clone();
        {
            let w = r.witness.as_mut().expect("witnessed");
            let n = pt.trace.len() as u64;
            w.cur.first_event = n + 10;
            w.cur.last_event = n + 20;
            w.cur.event = None;
        }
        prop_assert!(checker.check(&r).is_err(), "out-of-trace span accepted");
    }
}
