//! The front half of `comp+rts`, STINT and STINT(btree): the strand
//! coalescer of Section 3.2 — during a strand, every hook only sets bits in
//! two [`BitShadow`] tables — and the [`AccessHistory`] it hands a strand's
//! maximal disjoint runs to, reads before writes, at the strand's end, a
//! free or the finish: the word hashmap ([`crate::WordHistory`]) or the
//! interval stores of Section 4 ([`crate::IntervalHistory`]).

use crate::report::RaceReport;
use crate::stats::{DetectorStats, Sided};
use crate::trace::{TraceEvent, TraceOp};
use crate::ResourceBudget;
use stint_cilk::word_range;
use stint_faults::DetectorError;
use stint_shadow::{BitShadow, SetFilter, WordIv};
use stint_sporder::{Reachability, StrandId};

/// One access kind's runtime coalescer: the strand's bit table, the
/// hook-side filter that is only valid until the table is next extracted,
/// the runs last extracted, and the counts of what went in and came out.
struct Coalescer {
    table: BitShadow,
    filter: SetFilter,
    runs: Vec<WordIv>,
    side: Sided,
}

impl Coalescer {
    fn new(table: BitShadow) -> Self {
        Coalescer {
            table,
            filter: SetFilter::new(),
            runs: Vec::new(),
            side: Sided::default(),
        }
    }

    /// The load/store hook body: count the hook and set its words, inline
    /// when the range is on the table's lane.
    #[inline(always)]
    fn hook(&mut self, addr: usize, bytes: usize) {
        let (lo, hi) = word_range(addr, bytes);
        self.side.hooks += 1;
        self.side.hook_bytes += bytes as u64;
        self.side.words += hi - lo;
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

    /// A range that went around the table: the hook, and the one interval
    /// `extract` would have made of it, unless it is empty.
    fn count_around(&mut self, bytes: usize, (lo, hi): WordIv) {
        self.side.hooks += 1;
        self.side.hook_bytes += bytes as u64;
        self.side.words += hi - lo;
        if lo < hi {
            self.side.intervals += 1;
            self.side.interval_bytes += (hi - lo) * 4;
        }
    }

    /// Strand end: the strand's maximal intervals, counted; the table clear.
    fn extract(&mut self) -> &[WordIv] {
        self.runs.clear();
        self.table.extract_and_clear(&mut self.runs);
        self.filter.reset();
        self.side.intervals += self.runs.len() as u64;
        self.side.interval_bytes += self.runs.iter().map(|(lo, hi)| (hi - lo) * 4).sum::<u64>();
        &self.runs
    }
}

/// The **strand coalescer** (paper Section 3.2): the read and the write bit
/// table every hook of the current strand lands in — the front half of
/// `comp+rts`, of STINT, and of every source of `stint-batchdet`. Only the
/// intervals it hands out at a strand end cross into an access history, or
/// into a recorded trace.
pub struct StrandCoalescer {
    reads: Coalescer,
    writes: Coalescer,
}

impl Default for StrandCoalescer {
    fn default() -> Self {
        Self::new()
    }
}

impl StrandCoalescer {
    pub fn new() -> Self {
        Self::over(BitShadow::new)
    }

    /// A coalescer whose tables no fault plan caps ([`BitShadow::exact`]):
    /// what it hands out covers every access fed in, so a trace coalesced
    /// on its way to disk loses no access under any `--fault-plan`.
    pub fn exact() -> Self {
        Self::over(BitShadow::exact)
    }

    fn over(table: fn() -> BitShadow) -> Self {
        StrandCoalescer {
            reads: Coalescer::new(table()),
            writes: Coalescer::new(table()),
        }
    }

    /// Cap each bit table at `cap` shadow bytes; past its cap a table drops
    /// bits (sound: no false races) and records [`Self::exhausted`].
    pub fn with_max_shadow_bytes(mut self, cap: Option<u64>) -> Self {
        if let Some(bytes) = cap {
            for c in [&mut self.reads, &mut self.writes] {
                c.table.set_chunk_cap(bytes / BitShadow::BYTES_PER_CHUNK);
            }
        }
        self
    }

    #[inline(always)]
    pub fn load(&mut self, addr: usize, bytes: usize) {
        self.reads.hook(addr, bytes);
    }

    #[inline(always)]
    pub fn store(&mut self, addr: usize, bytes: usize) {
        self.writes.hook(addr, bytes);
    }

    /// Hooks delivered so far, loads and stores.
    pub fn hooks(&self) -> u64 {
        self.reads.side.hooks + self.writes.side.hooks
    }

    /// No hook since the last [`Self::take_runs`] set a word.
    pub fn is_clear(&self) -> bool {
        self.reads.table.is_clear() && self.writes.table.is_clear()
    }

    /// Hand out the strand's read runs and write runs, each sorted and
    /// pairwise disjoint, and clear both tables for the next strand.
    pub fn take_runs(&mut self) -> [&[WordIv]; 2] {
        [self.reads.extract(), self.writes.extract()]
    }

    /// The one hand-out rule, for a stream of trace events: an access goes
    /// into the tables; a strand end or free hands `sink` the strand's read
    /// runs, then its write runs, as `LoadRange`/`StoreRange` units
    /// ([`TraceEvent::unit`]), and then itself. A recorded trace is
    /// coalesced by it, and every batch source routes what it hands out.
    #[inline]
    pub fn feed(&mut self, e: TraceEvent, mut sink: impl FnMut(TraceEvent)) {
        match e.op {
            TraceOp::Load | TraceOp::LoadRange => self.load(e.addr, e.bytes),
            TraceOp::Store | TraceOp::StoreRange => self.store(e.addr, e.bytes),
            TraceOp::Free | TraceOp::StrandEnd => {
                self.hand_out(e.strand, &mut sink);
                sink(e);
            }
        }
    }

    /// Count a load (`store` false) or store of `bytes` bytes over the words
    /// `run` that its caller routed around the tables, as [`Self::feed`] and
    /// the hand-out would have counted it: one hook, and one interval unless
    /// `run` is empty. The interval count is exact while nothing else the
    /// strand accesses on that side overlaps or touches `run`, as in every
    /// recorded trace.
    pub fn count_around(&mut self, store: bool, bytes: usize, run: WordIv) {
        [&mut self.reads, &mut self.writes][store as usize].count_around(bytes, run);
    }

    /// Hand `strand`'s runs to `sink`, reads first, and clear both tables.
    pub(crate) fn hand_out(&mut self, strand: StrandId, mut sink: impl FnMut(TraceEvent)) {
        let [reads, writes] = self.take_runs();
        for (op, runs) in [(TraceOp::LoadRange, reads), (TraceOp::StoreRange, writes)] {
            runs.iter()
                .for_each(|&(lo, hi)| sink(TraceEvent::unit(op, strand, lo, hi)));
        }
    }

    /// The first table that ran out of its shadow budget, reads first.
    pub fn exhausted(&self) -> Option<DetectorError> {
        (self.reads.table.exhausted()).or_else(|| self.writes.table.exhausted())
    }

    /// Add this half's share of a run's statistics: hooks, words and
    /// intervals per side, filter hits, the tables' heap bytes.
    pub fn add_to(&self, stats: &mut DetectorStats) {
        stats.read.merge(&self.reads.side);
        stats.write.merge(&self.writes.side);
        stats.hook_filter_hits += self.reads.filter.hits + self.writes.filter.hits;
        stats.coalesce_bytes += self.reads.table.heap_bytes() + self.writes.table.heap_bytes();
    }
}

/// An access history behind a [`StrandCoalescer`]: it sees no hook, only
/// what a strand accessed since its last flush, as sorted disjoint runs.
pub trait AccessHistory: Sized {
    /// Apply the budget that bounds this history.
    fn with_budget(self, b: ResourceBudget) -> Self;
    /// The run's report (races, and the events the hooks observe).
    fn report(&mut self) -> &mut RaceReport;
    /// Failed and frozen: the hooks feed it nothing more.
    #[inline(always)]
    fn dead(&self) -> bool {
        false
    }
    /// Check and record what strand `s` accessed since its last flush: its
    /// `reads` and its `writes`, each sorted and pairwise disjoint.
    fn flush_runs<R: Reachability>(
        &mut self,
        s: StrandId,
        reads: &[WordIv],
        writes: &[WordIv],
        reach: &R,
    );
    /// The program freed the words `[lo, hi)`: forget their accessors. What
    /// the freeing strand accessed before is flushed first.
    fn tombstone(&mut self, lo: u64, hi: u64);
    /// End of the run: fold the history's counts into its statistics.
    fn finish(&mut self) -> DetectorStats;
    /// The first failure: a budget ran out.
    fn failure(&self) -> Option<DetectorError>;
}

/// Count a strand-end flush; the fault plan's `panic-at-flush=N` fires at
/// the Nth.
pub(crate) fn count_flush(stats: &mut DetectorStats, panic_at_flush: Option<u64>) {
    stats.strands_flushed += 1;
    if panic_at_flush == Some(stats.strands_flushed) {
        panic!("injected flush panic (fault plan panic-at-flush)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompRtsDetector, StintDetector};
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
        let stint = StintDetector::new(RaceReport::default());
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
