//! Workspace-level property tests: generated programs report the oracle's
//! racy words under every variant, and sequential STINT's races under
//! parallel online detection at every worker count and steal seed (the
//! harness's live and online tiers); two structural relations hold of the
//! oracle itself.

use proptest::prelude::*;
use stint_repro::{Config, Variant};
use stint_spdag::{simulate, Func, Stmt};

mod common;
use common::{check, func_strategy, live, online, Row};

fn stint() -> [Row; 1] {
    [Row::Live(Config::new(Variant::Stint))]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn variants_match_oracle(f in func_strategy(3)) {
        check(&f, 0, &live())?;
    }

    /// A terminal sync never changes the racy words (the implicit
    /// function-end sync already joins everything).
    #[test]
    fn trailing_sync_is_redundant(mut f in func_strategy(2)) {
        let before = simulate(&f).racy_words();
        f.0.push(Stmt::Sync);
        prop_assert_eq!(&simulate(&f).racy_words(), &before);
        check(&f, 0, &stint())?;
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
        check(&spawned, 0, &stint())?;
    }
}

proptest! {
    // Each case runs 12 online detections, so fewer cases than above.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The online engine (`detect --variant batch`) for workers {1, 2, 4, 8} ×
    /// three steal seeds.
    #[test]
    fn online_parallel_matches_sequential_stint(f in func_strategy(3)) {
        let shapes = [1, 2, 4, 8].into_iter().flat_map(|w| [(w, 0), (w, 0xDEAD_BEEF), (w, 42)]);
        check(&f, 0, &shapes.map(|(w, seed)| online(w, seed, 32)).collect::<Vec<_>>())?;
    }

    /// Witnesses the online engine numbers over the hook stream verify
    /// against a sequentially recorded one.
    #[test]
    fn online_witnesses_verify_against_recorded_trace(f in func_strategy(2)) {
        prop_assume!(!simulate(&f).racy_words().is_empty());
        check(&f, 0, &[online(2, 7, 32).witnessed()])?;
    }
}
