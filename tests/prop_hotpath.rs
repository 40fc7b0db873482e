//! Hot-path differential property tests: the optimized detector paths (page
//! batching + hook filter, strand-local reachability memoization) must report
//! exactly the racy words the legacy paths report, for every variant, on
//! proptest-generated fork-join programs (with shrinking to a small witness
//! on failure).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use stint_repro::{detect_with, Config, HotPath, Variant};
use stint_spdag::simulate;

mod common;
use common::{func_strategy, func_strategy_over, AstProgram};
use stint_spdag::Access;

const VARIANTS: [Variant; 5] = [
    Variant::Vanilla,
    Variant::Compiler,
    Variant::CompRts,
    Variant::Stint,
    Variant::StintFlat,
];

/// Every knob combination that changes behavior. `gated_timing` only moves
/// clock reads, so it rides along at its default.
const HOT_CONFIGS: [HotPath; 3] = [
    HotPath {
        batched: true,
        reach_cache: false,
        gated_timing: true,
    },
    HotPath {
        batched: false,
        reach_cache: true,
        gated_timing: true,
    },
    HotPath {
        batched: true,
        reach_cache: true,
        gated_timing: true,
    },
];

/// A run's verdict and hook-side statistics in a form that does not depend
/// on the order or segmentation in which a flush reports races: every
/// `(word, kind, prev, cur)` it reported, sorted, then the racy words, then
/// `read/write.{hooks,hook_bytes,words,intervals}`.
fn render(f: &stint_spdag::Func, v: Variant, hot: HotPath) -> (Vec<u64>, String) {
    let mut cfg = Config::new(v);
    cfg.hot = hot;
    let o = detect_with(&mut AstProgram(f), cfg);
    let mut per_word: Vec<String> = o
        .report
        .races()
        .iter()
        .flat_map(|r| {
            (r.word_lo..r.word_hi)
                .map(move |w| format!("{w:#x} {} prev {} cur {}\n", r.kind, r.prev.0, r.cur.0))
        })
        .collect();
    per_word.sort();
    per_word.dedup();
    let words = o.report.racy_words();
    let mut s = per_word.concat();
    s.push_str(&format!("racy {words:?}\n"));
    for (name, side) in [("read", o.stats.read), ("write", o.stats.write)] {
        s.push_str(&format!(
            "{name} hooks {} hook_bytes {} words {} intervals {}\n",
            side.hooks, side.hook_bytes, side.words, side.intervals
        ));
    }
    (words, s)
}

/// Legacy and optimized paths agree (and match the oracle) for every variant
/// and every hot-path knob combination.
fn check_hot_matches_legacy(f: &stint_spdag::Func) -> Result<(), TestCaseError> {
    let sim = simulate(f);
    prop_assume!(sim.strand_count() <= 250);
    let expected = sim.racy_words();
    for v in VARIANTS {
        let (words, legacy) = render(f, v, HotPath::LEGACY);
        prop_assert_eq!(&words, &expected, "legacy {} diverged from oracle", v);
        for hot in HOT_CONFIGS {
            let (_, got) = render(f, v, hot);
            prop_assert_eq!(
                &got,
                &legacy,
                "variant {} with {:?} diverged from legacy",
                v,
                hot
            );
        }
    }
    Ok(())
}

/// Word indices that exercise the bit table's lane and what it outlines:
/// the first groups of chunk 0, and the groups on either side of the
/// boundary between chunks 0 and 1 (so a program alternates chunks).
fn group_base() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(64), Just(128), Just(65472), Just(65536)]
}

fn access_of(range: impl Strategy<Value = (u64, u64)> + 'static) -> BoxedStrategy<Access> {
    (any::<bool>(), range, any::<bool>())
        .prop_map(|(write, (word, len), coalesced)| Access {
            write,
            word,
            len,
            coalesced,
        })
        .boxed()
}

/// Ranges inside one 64-word group, up to the whole group.
fn one_group() -> BoxedStrategy<Access> {
    access_of(
        (group_base(), 0u64..64, 0u64..64).prop_map(|(g, off, n)| (g + off, 1 + n % (64 - off))),
    )
}

/// Ranges that straddle at least one group boundary (for the last base, the
/// chunk boundary).
fn multi_group() -> BoxedStrategy<Access> {
    access_of(
        (group_base(), 1u64..64, 1u64..100)
            .prop_map(|(g, before, after)| (g + 64 - before, before + after)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hot_paths_match_legacy(f in func_strategy(3)) {
        check_hot_matches_legacy(&f)?;
    }

    /// Every hook takes the lane (or misses only the chunk cache).
    #[test]
    fn hot_paths_match_legacy_one_group(f in func_strategy_over(3, one_group())) {
        check_hot_matches_legacy(&f)?;
    }

    /// Every hook leaves the lane for the filtered general loop.
    #[test]
    fn hot_paths_match_legacy_multi_group(f in func_strategy_over(3, multi_group())) {
        check_hot_matches_legacy(&f)?;
    }

    #[test]
    fn hot_paths_match_legacy_mixed(
        f in func_strategy_over(3, prop_oneof![one_group(), multi_group()].boxed())
    ) {
        check_hot_matches_legacy(&f)?;
    }
}
