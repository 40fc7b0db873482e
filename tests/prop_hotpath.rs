//! Hook-path property tests: on generated programs every variant reports
//! the `simulate` oracle's racy words, and STINT over the treap and over the
//! `FlatStore` oracle report sequential STINT's races off the same
//! coalescer counts (the harness's live tier). The access strategies steer
//! hooks onto the bit table's inlined lane, off it into the filtered general
//! loop, or both.

use proptest::prelude::*;

mod common;
use common::{check, func_strategy, func_strategy_over, live, multi_group, one_group};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hook_paths_match_oracle(f in func_strategy(3)) {
        check(&f, 0, &live())?;
    }

    /// Every hook takes the lane (or misses only the chunk cache).
    #[test]
    fn hook_paths_match_oracle_one_group(f in func_strategy_over(3, one_group())) {
        check(&f, 0, &live())?;
    }

    /// Every hook leaves the lane for the filtered general loop.
    #[test]
    fn hook_paths_match_oracle_multi_group(f in func_strategy_over(3, multi_group())) {
        check(&f, 0, &live())?;
    }

    #[test]
    fn hook_paths_match_oracle_mixed(
        f in func_strategy_over(3, prop_oneof![one_group(), multi_group()].boxed())
    ) {
        check(&f, 0, &live())?;
    }
}
