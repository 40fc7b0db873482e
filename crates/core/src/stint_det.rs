//! The **STINT** detector variant: compile-time + runtime coalescing with
//! the *interval-based* access history of Section 4.
//!
//! During a strand, hooks set bits in the
//! [`BitShadow`](stint_shadow::BitShadow) coalescers exactly as in
//! `comp+rts`. At strand end the extracted intervals go to two interval
//! stores (read tree / write tree) instead of being replayed word-by-word:
//!
//! 1. every **read** interval is checked (query-only) against the write tree
//!    — a parallel last writer of any overlapped region is a write-read race
//!    — and then inserted into the read tree, where the leftmost reader of
//!    each overlapped region is kept;
//! 2. every **write** interval is checked (query-only) against the read tree
//!    (read-write races) and then inserted into the write tree, reporting
//!    write-write races against every overlapped previous writer.
//!
//! Reads are processed before writes so that all queries observe the
//! pre-strand history (a strand's intervals never conflict with themselves:
//! same strand ⇒ series).
//!
//! The detector is generic over the [`IntervalStore`] implementation: the
//! paper's treap by default ([`StintDetector`]), or the `BTreeMap` reference
//! store ([`StintFlatDetector`]) the treap is tested against.

use crate::comprts::StrandCoalescer;
use crate::report::{RaceKind, RaceReport};
use crate::stats::DetectorStats;
use crate::timing::FlushTimer;
use crate::ResourceBudget;
use stint_cilk::{word_range, Detector};
use stint_faults::{DetectorError, Resource};
use stint_ivtree::{FlatStore, Interval, IntervalStore, Treap};
use stint_shadow::WordIv;
use stint_sporder::{ReachCache, Reachability, StrandId};

/// Pseudo-accessor recorded over freed regions: it conflicts with nothing
/// and is always replaced by real accesses (allocator `free` integration).
pub const TOMBSTONE: StrandId = StrandId(u32::MAX);

/// STINT with the paper's treap access history.
pub type StintDetector = IntervalDetector<Treap<StrandId>>;
/// STINT with the `BTreeMap` reference access history (the test oracle).
pub type StintFlatDetector = IntervalDetector<FlatStore<StrandId>>;

/// The **interval history** (paper Section 4): the read and the write
/// interval store, checked and updated one strand's runs at a time. It sees
/// no hook — a [`StrandCoalescer`] turns a strand's hooks into the runs
/// [`Self::flush_runs`] takes — so one coalescer can feed several histories,
/// each owning a slice of the address space (`stint-batchdet`'s shards).
pub struct IntervalHistory<S> {
    read_tree: S,
    write_tree: S,
    cache: ReachCache,
    timer: FlushTimer,
    /// Interval budget (read tree + write tree); `None` = unbounded.
    max_intervals: Option<u64>,
    /// First structured failure; once set the history is *dead*: flushes and
    /// tombstones no-op, freezing the (sound) history at the failure point.
    failure: Option<DetectorError>,
    /// Injected fault: panic at the Nth strand-end flush (sampled from the
    /// process fault plan at construction time).
    panic_at_flush: Option<u64>,
    pub report: RaceReport,
    /// Flushes, access-history time and, after [`Self::finish`], the stores'
    /// and the reachability cache's counts; the hook and interval counts of
    /// a run are its coalescer's ([`StrandCoalescer::add_to`]).
    pub stats: DetectorStats,
}

impl IntervalHistory<Treap<StrandId>> {
    pub fn new(report: RaceReport) -> Self {
        Self::with_stores(
            Treap::with_seed(0x57A7_157A_7157_0001),
            Treap::with_seed(0x57A7_157A_7157_0002),
            report,
        )
    }
}

impl<S: IntervalStore<StrandId>> IntervalHistory<S> {
    pub fn with_stores(read_tree: S, write_tree: S, report: RaceReport) -> Self {
        IntervalHistory {
            read_tree,
            write_tree,
            cache: ReachCache::new(),
            timer: FlushTimer::default(),
            max_intervals: None,
            failure: None,
            panic_at_flush: stint_faults::panic_at_flush(),
            report,
            stats: DetectorStats::default(),
        }
    }

    /// Cap the stored intervals (read tree + write tree). Enforced after
    /// each flush — the flush that crosses the cap completes, then the
    /// history goes dead, frozen at that point.
    pub fn with_max_intervals(mut self, cap: Option<u64>) -> Self {
        self.max_intervals = cap;
        self
    }

    /// The failure that froze the history, if any.
    pub fn failure(&self) -> Option<DetectorError> {
        self.failure.clone()
    }

    /// Current sizes of the (read, write) interval stores.
    pub fn tree_sizes(&self) -> (usize, usize) {
        (self.read_tree.len(), self.write_tree.len())
    }

    /// Access the read-interval store (tests/benches).
    pub fn read_tree(&self) -> &S {
        &self.read_tree
    }
    /// Access the write-interval store (tests/benches).
    pub fn write_tree(&self) -> &S {
        &self.write_tree
    }

    /// Check and record what strand `s` accessed since its last flush: its
    /// `reads` and its `writes`, each sorted and pairwise disjoint. Shared by
    /// every strand end, `free` and `finish`.
    pub fn flush_runs<R: Reachability>(
        &mut self,
        s: StrandId,
        reads: &[WordIv],
        writes: &[WordIv],
        reach: &R,
    ) {
        if self.failure.is_some() || (reads.is_empty() && writes.is_empty()) {
            return;
        }
        let sorted = |runs: &[WordIv]| runs.windows(2).all(|w| w[0].1 <= w[1].0);
        debug_assert!(sorted(reads) && sorted(writes), "runs of two hand-outs");
        self.stats.strands_flushed += 1;
        if self.panic_at_flush == Some(self.stats.strands_flushed) {
            panic!("injected flush panic (fault plan panic-at-flush)");
        }
        let t0 = self.timer.begin();
        let _span = stint_obs::span("stint.flush");
        // Every query of a flush shares the current strand `s`, which is
        // what makes the strand-local cache applicable.
        self.cache.begin_strand(s);
        let cache = &mut self.cache;

        // All cross-tree checks first (they only read the opposite tree),
        // then the strand's whole sorted disjoint run list goes into its own
        // tree as ONE bulk insert — the treap's append fast path turns n
        // root-to-leaf insertions into an O(n) build plus an O(lg n) join
        // whenever the batch lands beyond the stored cover. Checks and
        // inserts touch different trees, so the phase split observes exactly
        // the history a per-interval check-then-insert loop would.
        for &(lo, hi) in reads {
            let report = &mut self.report;
            self.write_tree.query_overlaps(lo, hi, |old, olo, ohi| {
                if old != TOMBSTONE && cache.parallel_with_cur(old, reach) {
                    report.add_r(RaceKind::WriteRead, olo, ohi, old, s, reach);
                }
            });
        }
        self.read_tree.insert_reads_for(s, reads, |old| {
            old == TOMBSTONE || cache.cur_left_of(old, reach)
        });
        for &(lo, hi) in writes {
            let report = &mut self.report;
            self.read_tree.query_overlaps(lo, hi, |old, olo, ohi| {
                if old != TOMBSTONE && cache.parallel_with_cur(old, reach) {
                    report.add_r(RaceKind::ReadWrite, olo, ohi, old, s, reach);
                }
            });
        }
        let report = &mut self.report;
        self.write_tree
            .insert_writes_for(s, writes, |old, olo, ohi| {
                if old != TOMBSTONE && cache.parallel_with_cur(old, reach) {
                    report.add_r(RaceKind::WriteWrite, olo, ohi, old, s, reach);
                }
            });
        self.timer.end(t0, &mut self.stats.ah_time);

        // Interval budget: the flush that crosses the cap completes (its
        // checks above already ran against the pre-strand history), then the
        // history goes dead — sound up to this point.
        if let Some(cap) = self.max_intervals {
            let held = (self.read_tree.len() + self.write_tree.len()) as u64;
            if held > cap {
                self.failure = Some(DetectorError::ResourceExhausted {
                    resource: Resource::Intervals,
                    limit: cap,
                    at_word: None,
                });
            }
        }
    }

    /// The program freed the words `[lo, hi)`: blanket both trees with a
    /// tombstone. Whatever the freeing strand accessed before must have been
    /// flushed first — it is checked against the history this erases.
    pub fn tombstone(&mut self, lo: u64, hi: u64) {
        if self.failure.is_some() || lo >= hi {
            return;
        }
        self.read_tree
            .insert_write(Interval::new(lo, hi, TOMBSTONE), |_, _, _| {});
        self.write_tree
            .insert_write(Interval::new(lo, hi, TOMBSTONE), |_, _, _| {});
    }

    /// End of the run: fold the stores' and the cache's counts into `stats`.
    pub fn finish(&mut self) {
        let mut t = self.read_tree.stats();
        t.merge(&self.write_tree.stats());
        self.stats.treap = t;
        self.stats.reach_hits = self.cache.hits;
        self.stats.reach_misses = self.cache.misses;
        self.stats.reach_flushes = self.cache.flushes;
        self.stats.ah_bytes = t.bytes;
        self.stats.treap_inserts = t.inserts;
        self.stats.treap_len_hw = t.len_hw;
    }
}

/// Interval-based detector, generic over the access-history store: a
/// [`StrandCoalescer`] feeding one [`IntervalHistory`].
pub struct IntervalDetector<S> {
    front: StrandCoalescer,
    history: IntervalHistory<S>,
    /// The history's report, moved here by `finish`.
    pub report: RaceReport,
    /// Both halves' statistics, summed here by `finish`.
    pub stats: DetectorStats,
}

impl IntervalDetector<Treap<StrandId>> {
    pub fn new(report: RaceReport) -> Self {
        Self::over(IntervalHistory::new(report))
    }
}

impl IntervalDetector<FlatStore<StrandId>> {
    pub fn new_flat(report: RaceReport) -> Self {
        Self::with_stores(FlatStore::new(), FlatStore::new(), report)
    }
}

impl<S: IntervalStore<StrandId>> IntervalDetector<S> {
    pub fn with_stores(read_tree: S, write_tree: S, report: RaceReport) -> Self {
        Self::over(IntervalHistory::with_stores(read_tree, write_tree, report))
    }

    fn over(history: IntervalHistory<S>) -> Self {
        IntervalDetector {
            front: StrandCoalescer::new(),
            history,
            report: RaceReport::default(),
            stats: DetectorStats::default(),
        }
    }

    /// Apply resource budgets. A shadow-byte budget caps the coalescing bit
    /// tables (which drop bits soundly on exhaustion); an interval budget is
    /// enforced after each flush — the flush that crosses it completes, then
    /// the detector goes dead with its history frozen at that point.
    pub fn with_budget(mut self, b: ResourceBudget) -> Self {
        self.front = self.front.with_max_shadow_bytes(b.max_shadow_bytes);
        self.history = self.history.with_max_intervals(b.max_intervals);
        self
    }

    /// The back half (its stores, for tests/benches).
    pub fn history(&self) -> &IntervalHistory<S> {
        &self.history
    }

    /// The strand-end flush, shared by the `strand_end` hook, `free`, and
    /// `finish`. Internal callers must NOT `observe` (only real hook
    /// invocations are trace events).
    fn flush<R: Reachability>(&mut self, s: StrandId, reach: &R) {
        if self.history.failure.is_some() || self.front.is_clear() {
            return;
        }
        let [reads, writes] = self.front.take_runs();
        self.history.flush_runs(s, reads, writes, reach);
    }
}

impl<S: IntervalStore<StrandId>, R: Reachability> Detector<R> for IntervalDetector<S> {
    #[inline(always)]
    fn load(&mut self, s: StrandId, addr: usize, bytes: usize, _reach: &R) {
        self.history.report.observe(s, true);
        if self.history.failure.is_some() {
            return; // dead: history frozen at the failure point
        }
        self.front.load(addr, bytes);
    }

    #[inline(always)]
    fn store(&mut self, s: StrandId, addr: usize, bytes: usize, _reach: &R) {
        self.history.report.observe(s, true);
        if self.history.failure.is_some() {
            return; // dead: history frozen at the failure point
        }
        self.front.store(addr, bytes);
    }

    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.history.report.observe(s, false);
        // Flush pending accesses (they must be checked before the region's
        // history is erased), then blanket both trees with a tombstone.
        self.flush(s, reach);
        let (lo, hi) = word_range(addr, bytes);
        self.history.tombstone(lo, hi);
    }

    fn strand_end(&mut self, s: StrandId, reach: &R) {
        self.history.report.observe(s, false);
        self.flush(s, reach);
    }

    fn finish(&mut self, s: StrandId, reach: &R) {
        // Not a trace event: flush without `observe`.
        self.flush(s, reach);
        self.history.finish();
        self.stats = self.history.stats;
        self.front.add_to(&mut self.stats);
        self.report = std::mem::take(&mut self.history.report);
    }

    fn failure(&self) -> Option<DetectorError> {
        (self.history.failure()).or_else(|| self.front.exhausted())
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
    fn detects_simple_race_treap_and_flat() {
        let (ex, _) = run_with_detector(&mut RacyPair, StintDetector::new(RaceReport::default()));
        assert_eq!(ex.det.report.racy_words(), vec![25]);
        let (ex, _) = run_with_detector(
            &mut RacyPair,
            StintFlatDetector::new_flat(RaceReport::default()),
        );
        assert_eq!(ex.det.report.racy_words(), vec![25]);
    }

    struct BigRanges;
    impl CilkProgram for BigRanges {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            // Child writes [0,1024) bytes; continuation reads [512, 1536).
            ctx.spawn(|c| c.store_range(0, 1024));
            ctx.load_range(512, 1024);
            ctx.sync();
        }
    }

    #[test]
    fn interval_overlap_race_region() {
        let (ex, _) = run_with_detector(&mut BigRanges, StintDetector::new(RaceReport::default()));
        let d = &ex.det;
        // Overlap is bytes [512,1024) = words [128,256).
        assert_eq!(d.report.racy_words(), (128..256).collect::<Vec<u64>>());
        assert_eq!(d.stats.write.intervals, 1);
        assert_eq!(d.stats.read.intervals, 1);
    }

    /// Read-before-write inside a strand must still race with an earlier
    /// parallel writer.
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
        let (ex, _) = run_with_detector(
            &mut ReadThenWriteRace,
            StintDetector::new(RaceReport::default()),
        );
        assert_eq!(ex.det.report.racy_words(), vec![16]);
    }

    /// Serial reuse of the same region is race-free and keeps tree sizes
    /// small (intervals replace one another).
    struct SerialReuse;
    impl CilkProgram for SerialReuse {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            for _ in 0..50 {
                ctx.spawn(|c| {
                    c.load_range(0, 4096);
                    c.store_range(0, 4096);
                });
                ctx.sync();
            }
        }
    }

    #[test]
    fn serial_reuse_is_race_free_and_compact() {
        let (ex, _) =
            run_with_detector(&mut SerialReuse, StintDetector::new(RaceReport::default()));
        let d = &ex.det;
        assert!(d.report.is_race_free());
        let (r, w) = d.history().tree_sizes();
        assert_eq!(r, 1, "read tree holds one replacing interval");
        assert_eq!(w, 1, "write tree holds one replacing interval");
    }
}
