//! The `vanilla` and `compiler` detector variants (Section 5).
//!
//! Both keep the access history in the [`WordHistory`] of `comp+rts` and
//! check/update it *at every hook call* (no runtime coalescing, no strand-end
//! batching). They differ only in what they do with compiler-coalesced hooks:
//!
//! * **vanilla** models the *unmodified* compiler: a coalesced hook is
//!   processed as if the program had been instrumented per access — one
//!   shadow lookup per word, each paying the page-table walk;
//! * **compiler** exploits the coalesced hook: one call into the access
//!   history per range, traversing each shadow page once.

use crate::comprts::AccessHistory;
use crate::report::RaceReport;
use crate::stats::DetectorStats;
use crate::word_logic::{WordHistory, WordOp};
use crate::ResourceBudget;
use stint_cilk::{word_range, Detector};
use stint_faults::DetectorError;
use stint_sporder::{Reachability, StrandId};

/// Word-granularity, check-at-every-access detector.
pub struct VanillaDetector {
    /// True for the `compiler` variant (exploit coalesced hooks).
    compiler_coalescing: bool,
    /// The access history; its statistics take the hook counts as they come.
    history: WordHistory,
    /// The history's report, moved here by `finish`.
    pub report: RaceReport,
    /// The history's statistics, moved here by `finish`.
    pub stats: DetectorStats,
}

impl VanillaDetector {
    pub fn new(compiler_coalescing: bool, report: RaceReport) -> Self {
        VanillaDetector {
            compiler_coalescing,
            history: WordHistory::new(report),
            report: RaceReport::default(),
            stats: DetectorStats::default(),
        }
    }

    /// Apply resource budgets: the shadow-byte cap of the [`WordHistory`];
    /// the failure surfaces via [`Detector::failure`].
    pub fn with_budget(mut self, b: ResourceBudget) -> Self {
        self.history = self.history.with_budget(b);
        self
    }

    /// One hook of either side, `range` for a compiler-coalesced one: its
    /// statistics, then its words checked and updated
    /// ([`WordHistory::words`]).
    #[inline(always)]
    fn access<R: Reachability>(
        &mut self,
        op: WordOp,
        s: StrandId,
        addr: usize,
        bytes: usize,
        reach: &R,
        range: bool,
    ) {
        let h = &mut self.history;
        h.report.observe(s, true);
        let (lo, hi) = word_range(addr, bytes);
        let side = match op {
            WordOp::Read => &mut h.stats.read,
            WordOp::Write => &mut h.stats.write,
        };
        side.hooks += 1;
        side.hook_bytes += bytes as u64;
        side.words += hi - lo;
        let ranged = range && self.compiler_coalescing;
        if ranged || !range {
            // One access, one interval of its own size.
            side.intervals += 1;
            side.interval_bytes += bytes as u64;
        } else {
            // Unmodified compiler: every word is its own access/interval.
            side.intervals += hi - lo;
            side.interval_bytes += (hi - lo) * 4;
        }
        h.words(op, s, lo, hi, reach, ranged);
    }
}

impl<R: Reachability> Detector<R> for VanillaDetector {
    fn load(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.access(WordOp::Read, s, addr, bytes, reach, false);
    }

    fn store(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.access(WordOp::Write, s, addr, bytes, reach, false);
    }

    fn load_range(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.access(WordOp::Read, s, addr, bytes, reach, true);
    }

    fn store_range(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.access(WordOp::Write, s, addr, bytes, reach, true);
    }

    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, _reach: &R) {
        self.history.report.observe(s, false);
        let (lo, hi) = word_range(addr, bytes);
        self.history.tombstone(lo, hi);
    }

    fn strand_end(&mut self, s: StrandId, _reach: &R) {
        self.history.report.observe(s, false);
        self.history.end_strand();
    }

    fn finish(&mut self, _s: StrandId, _reach: &R) {
        // `finish` is not a trace event: no `observe`, or replayed event ids
        // would drift past the trace length.
        self.history.end_strand();
        self.stats = self.history.finish();
        self.report = std::mem::take(&mut self.history.report);
    }

    fn failure(&self) -> Option<DetectorError> {
        self.history.failure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stint_cilk::{run_with_detector, Cilk, CilkProgram};

    struct RacyPair;
    impl CilkProgram for RacyPair {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| c.store(100, 4));
            ctx.store(100, 4);
            ctx.sync();
        }
    }

    struct CleanPair;
    impl CilkProgram for CleanPair {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| c.store(100, 4));
            ctx.sync();
            ctx.store(100, 4);
        }
    }

    #[test]
    fn detects_simple_race() {
        for compiler in [false, true] {
            let det = VanillaDetector::new(compiler, RaceReport::default());
            let (ex, _) = run_with_detector(&mut RacyPair, det);
            let d = ex.into_detector();
            assert_eq!(d.report.racy_words(), vec![25], "compiler={compiler}");
        }
    }

    #[test]
    fn clean_program_is_race_free() {
        for compiler in [false, true] {
            let det = VanillaDetector::new(compiler, RaceReport::default());
            let (ex, _) = run_with_detector(&mut CleanPair, det);
            assert!(ex.det.report.is_race_free(), "compiler={compiler}");
        }
    }

    struct Ranged;
    impl CilkProgram for Ranged {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| c.store_range(0, 64)); // words 0..16
            ctx.load_range(32, 64); // words 8..24: overlap words 8..16
            ctx.sync();
        }
    }

    #[test]
    fn range_hooks_detect_overlapping_region() {
        for compiler in [false, true] {
            let det = VanillaDetector::new(compiler, RaceReport::default());
            let (ex, _) = run_with_detector(&mut Ranged, det);
            let d = ex.into_detector();
            assert_eq!(
                d.report.racy_words(),
                (8..16).collect::<Vec<u64>>(),
                "compiler={compiler}"
            );
            // Stats: interval accounting differs between the two modes.
            if compiler {
                assert_eq!(d.stats.write.intervals, 1);
                assert_eq!(d.stats.read.intervals, 1);
            } else {
                assert_eq!(d.stats.write.intervals, 16);
                assert_eq!(d.stats.read.intervals, 16);
            }
            assert_eq!(d.stats.write.words, 16);
            assert_eq!(d.stats.read.words, 16);
        }
    }
}
