//! The `comp+rts` detector variant (Section 5): compile-time **and** runtime
//! coalescing feeding the *word-granularity* hashmap access history.
//!
//! During a strand, all hooks only set bits in the two [`BitShadow`] tables
//! (cheap). At strand end, the maximal disjoint intervals are extracted —
//! already spatially coalesced and deduplicated — and each is replayed
//! word-by-word against the [`WordShadow`] access history ("the access
//! history in both comp+rts and compiler handles a given interval at
//! four-byte granularity"). The benefit over `compiler` is fewer and larger
//! top-level calls plus deduplication; the per-word hashmap cost remains.

use crate::report::RaceReport;
use crate::stats::{DetectorStats, Sided};
use crate::timing::FlushTimer;
use crate::word_logic::{replay_interval, WordOp};
use crate::ResourceBudget;
use stint_cilk::{word_range, Detector};
use stint_faults::DetectorError;
use stint_shadow::{BitShadow, SetFilter, WordIv, WordShadow};
use stint_sporder::{ReachCache, Reachability, StrandId};

/// One access kind's runtime coalescer, shared by `comp+rts` and STINT: the
/// strand's bit table and the hook-side filter that is only valid until the
/// table is next extracted.
pub(crate) struct Coalescer {
    pub(crate) table: BitShadow,
    pub(crate) filter: SetFilter,
}

impl Coalescer {
    pub(crate) fn new() -> Self {
        Coalescer {
            table: BitShadow::new(),
            filter: SetFilter::new(),
        }
    }

    /// The load/store hook body: count the hook on its `side` and set its
    /// words, inline when the range is on the table's lane.
    #[inline(always)]
    pub(crate) fn hook(&mut self, side: &mut Sided, addr: usize, bytes: usize) {
        let (lo, hi) = word_range(addr, bytes);
        side.hooks += 1;
        side.hook_bytes += bytes as u64;
        side.words += hi - lo;
        if !self.table.set_in_lane(lo, hi) {
            self.set_off_lane(lo, hi);
        }
    }

    /// A hook that left the lane. Only a range over several bitmap groups —
    /// where one elision saves a loop over the table — asks the filter (a
    /// one-group range is cheaper set than asked about): the table is
    /// monotone until the strand-end flush, so a range the filter has seen
    /// set this strand can skip it entirely.
    #[cold]
    #[inline(never)]
    fn set_off_lane(&mut self, lo: u64, hi: u64) {
        if lo < hi && lo >> 6 != (hi - 1) >> 6 {
            if !self.filter.covers(lo, hi) {
                self.table.set_range(lo, hi);
                self.filter.record(lo, hi);
            }
        } else {
            self.table.set_range(lo, hi);
        }
    }

    /// Strand end: append the strand's maximal intervals to `out` and clear.
    pub(crate) fn extract(&mut self, out: &mut Vec<WordIv>) {
        self.table.extract_and_clear(out);
        self.filter.reset();
    }
}

/// Runtime-coalescing detector over the word-granularity access history.
pub struct CompRtsDetector {
    reads: Coalescer,
    writes: Coalescer,
    shadow: WordShadow,
    scratch: Vec<WordIv>,
    cache: ReachCache,
    timer: FlushTimer,
    /// Injected fault: panic at the Nth strand-end flush (sampled from the
    /// process fault plan at construction time).
    panic_at_flush: Option<u64>,
    pub report: RaceReport,
    pub stats: DetectorStats,
}

impl CompRtsDetector {
    pub fn new(report: RaceReport) -> Self {
        CompRtsDetector {
            reads: Coalescer::new(),
            writes: Coalescer::new(),
            shadow: WordShadow::new(),
            scratch: Vec::new(),
            cache: ReachCache::new(),
            timer: FlushTimer::default(),
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

    /// The strand-end flush, shared by the `strand_end` hook, `free`, and
    /// `finish`. Internal callers must NOT `observe` (only real hook
    /// invocations are trace events).
    fn flush<R: Reachability>(&mut self, s: StrandId, reach: &R) {
        if self.reads.table.is_clear() && self.writes.table.is_clear() {
            return;
        }
        self.stats.strands_flushed += 1;
        if self.panic_at_flush == Some(self.stats.strands_flushed) {
            panic!("injected flush panic (fault plan panic-at-flush)");
        }
        let t0 = self.timer.begin();
        let _span = stint_obs::span("comprts.flush");
        self.cache.begin_strand(s);
        // Reads first: queries must observe the pre-strand history (a
        // strand's own write must not mask an earlier writer its read races
        // with — see DESIGN.md §3).
        let mut ivs = std::mem::take(&mut self.scratch);
        ivs.clear();
        self.reads.extract(&mut ivs);
        for &(lo, hi) in &ivs {
            self.stats.read.intervals += 1;
            self.stats.read.interval_bytes += (hi - lo) * 4;
            replay_interval(
                &mut self.shadow,
                WordOp::Read,
                lo,
                hi,
                s,
                reach,
                &mut self.cache,
                &mut self.report,
            );
        }
        ivs.clear();
        self.writes.extract(&mut ivs);
        for &(lo, hi) in &ivs {
            self.stats.write.intervals += 1;
            self.stats.write.interval_bytes += (hi - lo) * 4;
            replay_interval(
                &mut self.shadow,
                WordOp::Write,
                lo,
                hi,
                s,
                reach,
                &mut self.cache,
                &mut self.report,
            );
        }
        ivs.clear();
        self.scratch = ivs;
        self.timer.end(t0, &mut self.stats.ah_time);
    }

    /// Apply resource budgets. On exhaustion the [`WordShadow`] degrades to
    /// an always-empty sink page and the [`BitShadow`] coalescers drop bits
    /// (both sound: no false races); the first failure surfaces via
    /// [`Detector::failure`].
    pub fn with_budget(mut self, b: ResourceBudget) -> Self {
        if let Some(bytes) = b.max_shadow_bytes {
            self.shadow.set_page_cap(bytes / WordShadow::BYTES_PER_PAGE);
            for c in [&mut self.reads, &mut self.writes] {
                c.table.set_chunk_cap(bytes / BitShadow::BYTES_PER_CHUNK);
            }
        }
        self
    }
}

impl<R: Reachability> Detector<R> for CompRtsDetector {
    #[inline(always)]
    fn load(&mut self, s: StrandId, addr: usize, bytes: usize, _reach: &R) {
        self.report.observe(s, true);
        self.reads.hook(&mut self.stats.read, addr, bytes);
    }

    #[inline(always)]
    fn store(&mut self, s: StrandId, addr: usize, bytes: usize, _reach: &R) {
        self.report.observe(s, true);
        self.writes.hook(&mut self.stats.write, addr, bytes);
    }

    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.report.observe(s, false);
        // Flush the strand's pending accesses first (they really happened and
        // must be checked/recorded before the region's history is erased);
        // flushing mid-strand with the same strand id is semantics-preserving.
        self.flush(s, reach);
        let (lo, hi) = word_range(addr, bytes);
        self.shadow.clear_range(lo, hi);
    }

    fn strand_end(&mut self, s: StrandId, reach: &R) {
        self.report.observe(s, false);
        self.flush(s, reach);
    }

    fn finish(&mut self, s: StrandId, reach: &R) {
        // Not a trace event: flush without `observe`.
        self.flush(s, reach);
        self.stats.hash_ops = self.shadow.ops;
        self.stats.reach_hits = self.cache.hits;
        self.stats.reach_misses = self.cache.misses;
        self.stats.reach_flushes = self.cache.flushes;
        self.stats.page_batches = self.shadow.batches;
        self.stats.page_batch_words = self.shadow.batched_words;
        self.stats.hook_filter_hits = self.reads.filter.hits + self.writes.filter.hits;
        self.stats.ah_bytes = self.shadow.heap_bytes();
        self.stats.coalesce_bytes = self.reads.table.heap_bytes() + self.writes.table.heap_bytes();
    }

    fn failure(&self) -> Option<DetectorError> {
        self.shadow
            .exhausted()
            .or_else(|| self.reads.table.exhausted())
            .or_else(|| self.writes.table.exhausted())
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

    #[test]
    fn detects_simple_race() {
        let det = CompRtsDetector::new(RaceReport::default());
        let (ex, _) = run_with_detector(&mut RacyPair, det);
        assert_eq!(ex.det.report.racy_words(), vec![25]);
    }

    /// Repeated and adjacent accesses within a strand must collapse into one
    /// interval (temporal + spatial coalescing).
    struct Chatty;
    impl CilkProgram for Chatty {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            for _ in 0..100 {
                for i in 0..8usize {
                    ctx.store(i * 4, 4);
                }
            }
            ctx.spawn(|_| {});
            ctx.sync();
        }
    }

    #[test]
    fn dedup_and_coalescing() {
        let det = CompRtsDetector::new(RaceReport::default());
        let (ex, _) = run_with_detector(&mut Chatty, det);
        let d = &ex.det;
        assert_eq!(d.stats.write.hooks, 800);
        assert_eq!(d.stats.write.words, 800);
        assert_eq!(d.stats.write.intervals, 1, "one coalesced interval");
        assert_eq!(d.stats.write.interval_bytes, 32);
        // The hashmap saw each deduplicated word once.
        assert_eq!(d.stats.hash_ops, 8);
        assert!(d.report.is_race_free());
    }

    /// The edges of the bit table's hook lane, through both coalescing
    /// detectors.
    struct LaneEdges;
    impl CilkProgram for LaneEdges {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            const CHUNK: usize = 1 << 16; // words per bit-table chunk
            ctx.store(0, 0); // zero-length at word 0
            ctx.store(64 * 4, 256); // 64 words fill a bitmap group exactly
            ctx.store(63 * 4, 8); // 63|64 straddles two groups
            ctx.store((CHUNK - 1) * 4, 4); // last word of a chunk ...
            ctx.store(CHUNK * 4, 4); // ... and the first of the next
            for i in 0..50 {
                // Two chunks take turns in the table's one-entry chunk cache.
                ctx.load(i * 4, 4);
                ctx.load((CHUNK + 1000 + i) * 4, 4);
            }
            ctx.spawn(|_| {});
            ctx.sync();
        }
    }

    #[test]
    fn lane_edges_count_and_coalesce() {
        let comprts = CompRtsDetector::new(RaceReport::default());
        let (ex, _) = run_with_detector(&mut LaneEdges, comprts);
        let stint = crate::StintDetector::new(RaceReport::default());
        let (ex2, _) = run_with_detector(&mut LaneEdges, stint);
        for (stats, report) in [
            (ex.det.stats, &ex.det.report),
            (ex2.det.stats, &ex2.det.report),
        ] {
            let (r, w) = (stats.read, stats.write);
            assert_eq!((w.hooks, w.hook_bytes, w.words), (5, 272, 68));
            // [63, 128) and the two words around the chunk boundary.
            assert_eq!((w.intervals, w.interval_bytes), (2, 67 * 4));
            assert_eq!((r.hooks, r.hook_bytes, r.words), (100, 400, 100));
            assert_eq!((r.intervals, r.interval_bytes), (2, 400));
            assert_eq!(report.racy_words(), Vec::<u64>::new());
        }
    }

    /// A strand that reads a word before writing it must still race with an
    /// earlier parallel writer (reads processed before writes at flush).
    struct ReadThenWriteRace;
    impl CilkProgram for ReadThenWriteRace {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| c.store(64, 4));
            ctx.load(64, 4);
            ctx.store(64, 4);
            ctx.sync();
        }
    }

    #[test]
    fn own_write_does_not_mask_read_race() {
        let det = CompRtsDetector::new(RaceReport::default());
        let (ex, _) = run_with_detector(&mut ReadThenWriteRace, det);
        assert_eq!(ex.det.report.racy_words(), vec![16]);
    }
}
