//! The `vanilla` and `compiler` detector variants (Section 5).
//!
//! Both keep the access history in the word-granularity [`WordShadow`] and
//! check/update it *at every hook call* (no runtime coalescing, no strand-end
//! batching). They differ only in what they do with compiler-coalesced hooks:
//!
//! * **vanilla** models the *unmodified* compiler: a coalesced hook is
//!   processed as if the program had been instrumented per access — one
//!   shadow lookup per word, each paying the page-table walk;
//! * **compiler** exploits the coalesced hook: one call into the access
//!   history per range, traversing each shadow page once.

use crate::report::RaceReport;
use crate::stats::DetectorStats;
use crate::word_logic::{read_word, replay_interval, write_word, WordOp};
use crate::ResourceBudget;
use stint_cilk::{word_range, Detector};
use stint_faults::DetectorError;
use stint_shadow::WordShadow;
use stint_sporder::{ReachCache, Reachability, StrandId};

/// Word-granularity, check-at-every-access detector.
pub struct VanillaDetector {
    /// True for the `compiler` variant (exploit coalesced hooks).
    compiler_coalescing: bool,
    shadow: WordShadow,
    cache: ReachCache,
    /// Injected fault: panic at the Nth strand-end flush (sampled from the
    /// process fault plan at construction time).
    panic_at_flush: Option<u64>,
    pub report: RaceReport,
    pub stats: DetectorStats,
}

impl VanillaDetector {
    pub fn new(compiler_coalescing: bool, report: RaceReport) -> Self {
        VanillaDetector {
            compiler_coalescing,
            shadow: WordShadow::new(),
            cache: ReachCache::new(),
            panic_at_flush: if stint_faults::is_active() {
                stint_faults::panic_at_flush()
            } else {
                None
            },
            report,
            stats: DetectorStats::default(),
        }
    }

    /// Enable verifiable-witness capture (see [`crate::witness`]).
    pub fn with_witnesses(mut self, on: bool) -> Self {
        self.report.set_witness_capture(on);
        self
    }

    /// Apply resource budgets. On exhaustion the [`WordShadow`] degrades to
    /// an always-empty sink page (sound: nothing past the cap can satisfy a
    /// race predicate) and the failure surfaces via [`Detector::failure`].
    pub fn with_budget(mut self, b: ResourceBudget) -> Self {
        if let Some(bytes) = b.max_shadow_bytes {
            self.shadow.set_page_cap(bytes / WordShadow::BYTES_PER_PAGE);
        }
        self
    }

    pub fn shadow(&self) -> &WordShadow {
        &self.shadow
    }

    fn load_words<R: Reachability>(
        &mut self,
        s: StrandId,
        lo: u64,
        hi: u64,
        reach: &R,
        ranged: bool,
    ) {
        let report = &mut self.report;
        self.cache.begin_strand(s);
        if ranged {
            replay_interval(
                &mut self.shadow,
                WordOp::Read,
                lo,
                hi,
                s,
                reach,
                &mut self.cache,
                report,
            );
        } else {
            // Per-word lookups: each pays its own page-table walk (that cost
            // is the modeled quantity — batching must not hide it), but the
            // reachability cache is detector-internal and still applies.
            for w in lo..hi {
                let e = self.shadow.entry_mut(w);
                read_word(e, w, s, reach, &mut self.cache, report);
            }
        }
    }

    fn store_words<R: Reachability>(
        &mut self,
        s: StrandId,
        lo: u64,
        hi: u64,
        reach: &R,
        ranged: bool,
    ) {
        let report = &mut self.report;
        self.cache.begin_strand(s);
        if ranged {
            replay_interval(
                &mut self.shadow,
                WordOp::Write,
                lo,
                hi,
                s,
                reach,
                &mut self.cache,
                report,
            );
        } else {
            for w in lo..hi {
                let e = self.shadow.entry_mut(w);
                write_word(e, w, s, reach, &mut self.cache, report);
            }
        }
    }

    /// Strand-boundary accounting shared by the `strand_end` hook and
    /// `finish` (which is not a trace event and must not `observe`).
    fn end_strand(&mut self) {
        self.stats.strands_flushed += 1;
        if self.panic_at_flush == Some(self.stats.strands_flushed) {
            panic!("injected flush panic (fault plan panic-at-flush)");
        }
    }
}

impl<R: Reachability> Detector<R> for VanillaDetector {
    fn load(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.report.observe(s, true);
        let (lo, hi) = word_range(addr, bytes);
        self.stats.read.hooks += 1;
        self.stats.read.hook_bytes += bytes as u64;
        self.stats.read.words += hi - lo;
        // A plain hook is one access: one interval of its own size.
        self.stats.read.intervals += 1;
        self.stats.read.interval_bytes += bytes as u64;
        self.load_words(s, lo, hi, reach, false);
    }

    fn store(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.report.observe(s, true);
        let (lo, hi) = word_range(addr, bytes);
        self.stats.write.hooks += 1;
        self.stats.write.hook_bytes += bytes as u64;
        self.stats.write.words += hi - lo;
        self.stats.write.intervals += 1;
        self.stats.write.interval_bytes += bytes as u64;
        self.store_words(s, lo, hi, reach, false);
    }

    fn load_range(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.report.observe(s, true);
        let (lo, hi) = word_range(addr, bytes);
        self.stats.read.hooks += 1;
        self.stats.read.hook_bytes += bytes as u64;
        self.stats.read.words += hi - lo;
        if self.compiler_coalescing {
            self.stats.read.intervals += 1;
            self.stats.read.interval_bytes += bytes as u64;
        } else {
            // Unmodified compiler: every word is its own access/interval.
            self.stats.read.intervals += hi - lo;
            self.stats.read.interval_bytes += (hi - lo) * 4;
        }
        self.load_words(s, lo, hi, reach, self.compiler_coalescing);
    }

    fn store_range(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.report.observe(s, true);
        let (lo, hi) = word_range(addr, bytes);
        self.stats.write.hooks += 1;
        self.stats.write.hook_bytes += bytes as u64;
        self.stats.write.words += hi - lo;
        if self.compiler_coalescing {
            self.stats.write.intervals += 1;
            self.stats.write.interval_bytes += bytes as u64;
        } else {
            self.stats.write.intervals += hi - lo;
            self.stats.write.interval_bytes += (hi - lo) * 4;
        }
        self.store_words(s, lo, hi, reach, self.compiler_coalescing);
    }

    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, _reach: &R) {
        self.report.observe(s, false);
        let (lo, hi) = word_range(addr, bytes);
        self.shadow.clear_range(lo, hi);
    }

    fn strand_end(&mut self, s: StrandId, _reach: &R) {
        self.report.observe(s, false);
        self.end_strand();
    }

    fn finish(&mut self, _s: StrandId, _reach: &R) {
        // `finish` is not a trace event: no `observe`, or replayed event ids
        // would drift past the trace length.
        self.end_strand();
        self.stats.hash_ops = self.shadow.ops;
        self.stats.reach_hits = self.cache.hits;
        self.stats.reach_misses = self.cache.misses;
        self.stats.reach_flushes = self.cache.flushes;
        self.stats.page_batches = self.shadow.batches;
        self.stats.page_batch_words = self.shadow.batched_words;
        self.stats.ah_bytes = self.shadow.heap_bytes();
    }

    fn failure(&self) -> Option<DetectorError> {
        self.shadow.exhausted()
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
