//! Hook-path property tests: on proptest-generated fork-join programs (with
//! shrinking to a small witness on failure) every variant reports exactly the
//! racy words the `stint_spdag::simulate` oracle reports, and STINT over the
//! treap renders identically to STINT over the `FlatStore` oracle. The four
//! access strategies steer hooks onto the bit table's inlined lane, off it
//! into the filtered general loop, or both.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use stint_repro::{detect_with, Config, Variant};
use stint_spdag::simulate;

mod common;
use common::{func_strategy, func_strategy_over, multi_group, one_group, AstProgram};

const VARIANTS: [Variant; 5] = [
    Variant::Vanilla,
    Variant::Compiler,
    Variant::CompRts,
    Variant::Stint,
    Variant::StintFlat,
];

/// A run's verdict and hook-side statistics in a form that does not depend
/// on the order or segmentation in which a flush reports races: every
/// `(word, kind, prev, cur)` it reported, sorted, then the racy words, then
/// `read/write.{hooks,hook_bytes,words,intervals}`.
fn render(f: &stint_spdag::Func, v: Variant) -> (Vec<u64>, String) {
    let o = detect_with(&mut AstProgram(f), Config::new(v));
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

/// Every variant matches the oracle's racy words, and the treap's render
/// equals the `FlatStore` oracle's.
fn check_matches_oracle(f: &stint_spdag::Func) -> Result<(), TestCaseError> {
    let sim = simulate(f);
    prop_assume!(sim.strand_count() <= 250);
    let expected = sim.racy_words();
    for v in VARIANTS {
        let (words, _) = render(f, v);
        prop_assert_eq!(&words, &expected, "{} diverged from oracle", v);
    }
    prop_assert_eq!(
        render(f, Variant::Stint).1,
        render(f, Variant::StintFlat).1,
        "treap render diverged from FlatStore's"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hook_paths_match_oracle(f in func_strategy(3)) {
        check_matches_oracle(&f)?;
    }

    /// Every hook takes the lane (or misses only the chunk cache).
    #[test]
    fn hook_paths_match_oracle_one_group(f in func_strategy_over(3, one_group())) {
        check_matches_oracle(&f)?;
    }

    /// Every hook leaves the lane for the filtered general loop.
    #[test]
    fn hook_paths_match_oracle_multi_group(f in func_strategy_over(3, multi_group())) {
        check_matches_oracle(&f)?;
    }

    #[test]
    fn hook_paths_match_oracle_mixed(
        f in func_strategy_over(3, prop_oneof![one_group(), multi_group()].boxed())
    ) {
        check_matches_oracle(&f)?;
    }
}
