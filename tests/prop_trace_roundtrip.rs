//! Round-trip property for the trace subsystem: a recorded trace, saved in
//! either format and loaded back, replays to the live run's racy words,
//! races and `DetectorStats` (the harness's replay tier). A hook stream
//! matches field for field: the detector cannot tell it from the original
//! execution. The strand-coalesced units `PortableTrace::record` stores
//! hand the detector each strand's runs instead of its hooks, so they match
//! on every field but the hook-side counts.

use proptest::prelude::*;
use stint_repro::Variant;

mod common;
use common::{check, func_strategy, Row, Src, VARIANTS};

/// Sequential STINT replaying the hook stream and the units from `src`.
fn stint_from(src: Src) -> [Row; 2] {
    [true, false].map(|hooks| Row::Replay(hooks, src, Variant::Stint))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every variant over the units. The interval detectors also find the
    /// live run's number of races; `vanilla` and `compiler` report once per
    /// word per access, in access order, so their totals over a strand's
    /// runs (reads, then writes) need not match those over its hooks.
    #[test]
    fn every_variant_finds_the_live_racy_words_over_units(f in func_strategy(3)) {
        check(&f, 0, &VARIANTS.map(|v| Row::Replay(false, Src::Mem, v)))?;
    }

    /// Coalescing is idempotent — what the harness checks of every program
    /// before its first row.
    #[test]
    fn coalescing_a_coalesced_trace_changes_nothing(f in func_strategy(3)) {
        check(&f, 0, &[])?;
    }

    #[test]
    fn record_save_load_replay_reproduces_live_run(f in func_strategy(3)) {
        check(&f, 0, &stint_from(Src::V1))?;
    }

    /// The compressed v2 codec is lossless at every chunk size.
    #[test]
    fn compressed_save_load_replay_reproduces_live_run(
        f in func_strategy(3),
        chunk_events in prop_oneof![Just(1usize), 2usize..64, Just(4096usize)],
    ) {
        check(&f, 0, &stint_from(Src::V2(chunk_events)))?;
    }
}
