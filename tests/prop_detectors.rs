//! Workspace-level property tests: proptest-generated fork-join programs
//! (with shrinking) must produce identical racy-word sets under every
//! detector variant and match the brute-force oracle.
//!
//! This complements `stint`'s own seeded differential sweeps with proptest's
//! shrinking: a failure here minimizes to a small witness program.

use proptest::prelude::*;
use stint::{ResourceBudget, WitnessChecker};
use stint_batchdet::{online_detect, OnlineConfig};
use stint_repro::{detect, Variant};
use stint_spdag::{simulate, Func, Stmt};

mod common;
use common::{func_strategy, hook_trace, AstProgram};

fn online_cfg(workers: usize, steal_seed: u64) -> OnlineConfig {
    OnlineConfig {
        shards: 3,
        workers,
        steal_seed,
        chunk_events: 32,
        witnesses: false,
        budget: ResourceBudget::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn variants_match_oracle(f in func_strategy(3)) {
        let sim = simulate(&f);
        prop_assume!(sim.strand_count() <= 250);
        let expected = sim.racy_words();
        for v in [
            Variant::Vanilla,
            Variant::Compiler,
            Variant::CompRts,
            Variant::Stint,
            Variant::StintFlat,
        ] {
            let got = detect(&mut AstProgram(&f), v).report.racy_words();
            prop_assert_eq!(&got, &expected, "variant {} diverged", v);
        }
    }

    /// Adding a terminal sync never changes the racy words (the implicit
    /// function-end sync already joins everything).
    #[test]
    fn trailing_sync_is_redundant(mut f in func_strategy(2)) {
        let before = simulate(&f).racy_words();
        f.0.push(Stmt::Sync);
        let after = simulate(&f).racy_words();
        prop_assert_eq!(&before, &after);
        let detected = detect(&mut AstProgram(&f), Variant::Stint).report.racy_words();
        prop_assert_eq!(&detected, &before);
    }

    /// Wrapping the whole program in Call (serial, own sync scope) or in a
    /// single Spawn+Sync preserves its internal races.
    #[test]
    fn structural_wrappers_preserve_races(f in func_strategy(2)) {
        let base = simulate(&f).racy_words();
        let called = Func(vec![Stmt::Call(f.clone())]);
        prop_assert_eq!(&simulate(&called).racy_words(), &base);
        let spawned = Func(vec![Stmt::Spawn(f.clone()), Stmt::Sync]);
        prop_assert_eq!(&simulate(&spawned).racy_words(), &base);
        let got = detect(&mut AstProgram(&spawned), Variant::Stint).report.racy_words();
        prop_assert_eq!(&got, &base);
    }
}

proptest! {
    // Each case runs 12 full parallel-online detections (4 worker counts ×
    // 3 steal seeds), so the case count is lower than the sweep above.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The differential battery for `--online-parallel`: racy intervals from
    /// the concurrent DePa-backed pipeline are identical to sequential STINT
    /// for every worker count and steal seed, and the rendered report is
    /// byte-identical across all of them.
    #[test]
    fn online_parallel_matches_sequential_stint(f in func_strategy(3)) {
        let sim = simulate(&f);
        prop_assume!(sim.strand_count() <= 250);
        let expected = detect(&mut AstProgram(&f), Variant::Stint).report.racy_words();
        prop_assert_eq!(&sim.racy_words(), &expected);
        let mut baseline: Option<String> = None;
        for workers in [1usize, 2, 4, 8] {
            for seed in [0u64, 0xDEAD_BEEF, 42] {
                let out = online_detect(&mut AstProgram(&f), &online_cfg(workers, seed))
                    .expect("online detection must not fail without faults");
                prop_assert!(out.degraded.is_none());
                prop_assert_eq!(
                    &out.merged.racy_words, &expected,
                    "workers={} seed={} diverged from sequential STINT", workers, seed
                );
                let render = out.merged.render();
                match &baseline {
                    None => baseline = Some(render),
                    Some(b) => prop_assert_eq!(
                        &render, b,
                        "render not byte-identical at workers={} seed={}", workers, seed
                    ),
                }
            }
        }
    }

    /// Witnessed parallel-online reports carry verifiable evidence: every
    /// merged region's witness passes the independent `WitnessChecker`
    /// against a sequentially recorded hook stream of the same program — the
    /// stream the online engine numbers its events over.
    #[test]
    fn online_witnesses_verify_against_recorded_trace(f in func_strategy(2)) {
        let sim = simulate(&f);
        prop_assume!(sim.strand_count() <= 250);
        prop_assume!(!sim.racy_words().is_empty());
        let mut cfg = online_cfg(2, 7);
        cfg.witnesses = true;
        let out = online_detect(&mut AstProgram(&f), &cfg).unwrap();
        prop_assert!(!out.merged.regions.is_empty());
        let pt = hook_trace(&mut AstProgram(&f));
        let checker = WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
        for r in &out.merged.regions {
            prop_assert!(r.witness.is_some(), "merged region lost its witness");
            let verdict = checker.check(r);
            prop_assert!(verdict.is_ok(), "witness rejected: {:?}", verdict);
        }
    }
}
