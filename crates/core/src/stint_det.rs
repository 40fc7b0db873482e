//! The **STINT** detector variant: compile-time + runtime coalescing with
//! the *interval-based* access history of Section 4.
//!
//! During a strand, hooks set bits in the [`BitShadow`] coalescers exactly as
//! in `comp+rts`. At strand end the extracted intervals go to two interval
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

use crate::comprts::Coalescer;
use crate::report::{RaceKind, RaceReport};
use crate::stats::DetectorStats;
use crate::timing::FlushTimer;
use crate::ResourceBudget;
use stint_cilk::{word_range, Detector};
use stint_faults::{DetectorError, Resource};
use stint_ivtree::{FlatStore, Interval, IntervalStore, Treap};
use stint_shadow::{BitShadow, WordIv};
use stint_sporder::{ReachCache, Reachability, StrandId};

/// Pseudo-accessor recorded over freed regions: it conflicts with nothing
/// and is always replaced by real accesses (allocator `free` integration).
pub const TOMBSTONE: StrandId = StrandId(u32::MAX);

/// STINT with the paper's treap access history.
pub type StintDetector = IntervalDetector<Treap<StrandId>>;
/// STINT with the `BTreeMap` reference access history (the test oracle).
pub type StintFlatDetector = IntervalDetector<FlatStore<StrandId>>;

/// Interval-based detector, generic over the access-history store.
pub struct IntervalDetector<S> {
    reads: Coalescer,
    writes: Coalescer,
    read_tree: S,
    write_tree: S,
    scratch_r: Vec<WordIv>,
    scratch_w: Vec<WordIv>,
    cache: ReachCache,
    timer: FlushTimer,
    /// Interval budget (read tree + write tree); `None` = unbounded.
    max_intervals: Option<u64>,
    /// First structured failure; once set the detector is *dead*: hooks and
    /// flushes no-op, freezing the (sound) history at the failure point.
    failure: Option<DetectorError>,
    /// Injected fault: panic at the Nth strand-end flush (sampled from the
    /// process fault plan at construction time).
    panic_at_flush: Option<u64>,
    pub report: RaceReport,
    pub stats: DetectorStats,
}

impl IntervalDetector<Treap<StrandId>> {
    pub fn new(report: RaceReport) -> Self {
        Self::with_stores(
            Treap::with_seed(0x57A7_157A_7157_0001),
            Treap::with_seed(0x57A7_157A_7157_0002),
            report,
        )
    }
}

impl IntervalDetector<FlatStore<StrandId>> {
    pub fn new_flat(report: RaceReport) -> Self {
        Self::with_stores(FlatStore::new(), FlatStore::new(), report)
    }
}

impl<S: IntervalStore<StrandId>> IntervalDetector<S> {
    pub fn with_stores(read_tree: S, write_tree: S, report: RaceReport) -> Self {
        IntervalDetector {
            reads: Coalescer::new(),
            writes: Coalescer::new(),
            read_tree,
            write_tree,
            scratch_r: Vec::new(),
            scratch_w: Vec::new(),
            cache: ReachCache::new(),
            timer: FlushTimer::default(),
            max_intervals: None,
            failure: None,
            panic_at_flush: if stint_faults::is_active() {
                stint_faults::panic_at_flush()
            } else {
                None
            },
            report,
            stats: DetectorStats::default(),
        }
    }

    /// Apply resource budgets. A shadow-byte budget caps the coalescing bit
    /// tables (which drop bits soundly on exhaustion); an interval budget is
    /// enforced after each flush — the flush that crosses it completes, then
    /// the detector goes dead with its history frozen at that point.
    pub fn with_budget(mut self, b: ResourceBudget) -> Self {
        if let Some(bytes) = b.max_shadow_bytes {
            for c in [&mut self.reads, &mut self.writes] {
                c.table.set_chunk_cap(bytes / BitShadow::BYTES_PER_CHUNK);
            }
        }
        self.max_intervals = b.max_intervals;
        self
    }

    /// Enable verifiable-witness capture (see [`crate::witness`]).
    pub fn with_witnesses(mut self, on: bool) -> Self {
        self.report.set_witness_capture(on);
        self
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
}

impl<S: IntervalStore<StrandId>, R: Reachability> Detector<R> for IntervalDetector<S> {
    #[inline(always)]
    fn load(&mut self, s: StrandId, addr: usize, bytes: usize, _reach: &R) {
        self.report.observe(s, true);
        if self.failure.is_some() {
            return; // dead: history frozen at the failure point
        }
        self.reads.hook(&mut self.stats.read, addr, bytes);
    }

    #[inline(always)]
    fn store(&mut self, s: StrandId, addr: usize, bytes: usize, _reach: &R) {
        self.report.observe(s, true);
        if self.failure.is_some() {
            return; // dead: history frozen at the failure point
        }
        self.writes.hook(&mut self.stats.write, addr, bytes);
    }

    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.report.observe(s, false);
        if self.failure.is_some() {
            return; // dead: history frozen at the failure point
        }
        // Flush pending accesses (they must be checked before the region's
        // history is erased), then blanket both trees with a tombstone.
        self.flush(s, reach);
        let (lo, hi) = word_range(addr, bytes);
        if lo < hi {
            self.read_tree
                .insert_write(Interval::new(lo, hi, TOMBSTONE), |_, _, _| {});
            self.write_tree
                .insert_write(Interval::new(lo, hi, TOMBSTONE), |_, _, _| {});
        }
    }

    fn strand_end(&mut self, s: StrandId, reach: &R) {
        self.report.observe(s, false);
        self.flush(s, reach);
    }

    fn finish(&mut self, s: StrandId, reach: &R) {
        // Not a trace event: flush without `observe`.
        self.flush(s, reach);
        let mut t = self.read_tree.stats();
        t.merge(&self.write_tree.stats());
        self.stats.treap = t;
        self.stats.reach_hits = self.cache.hits;
        self.stats.reach_misses = self.cache.misses;
        self.stats.reach_flushes = self.cache.flushes;
        self.stats.hook_filter_hits = self.reads.filter.hits + self.writes.filter.hits;
        self.stats.ah_bytes = t.bytes;
        self.stats.coalesce_bytes = self.reads.table.heap_bytes() + self.writes.table.heap_bytes();
        self.stats.treap_inserts = t.inserts;
        self.stats.treap_len_hw = t.len_hw;
    }

    fn failure(&self) -> Option<DetectorError> {
        self.failure
            .clone()
            .or_else(|| self.reads.table.exhausted())
            .or_else(|| self.writes.table.exhausted())
    }
}

impl<S: IntervalStore<StrandId>> IntervalDetector<S> {
    /// The strand-end flush, shared by the `strand_end` hook, `free`, and
    /// `finish`. Internal callers must NOT `observe` (only real hook
    /// invocations are trace events).
    fn flush<R: Reachability>(&mut self, s: StrandId, reach: &R) {
        if self.failure.is_some() || (self.reads.table.is_clear() && self.writes.table.is_clear()) {
            return;
        }
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
        let mut reads = std::mem::take(&mut self.scratch_r);
        let mut writes = std::mem::take(&mut self.scratch_w);
        reads.clear();
        writes.clear();
        self.reads.extract(&mut reads);
        self.writes.extract(&mut writes);
        for &(lo, hi) in &reads {
            self.stats.read.intervals += 1;
            self.stats.read.interval_bytes += (hi - lo) * 4;
        }
        for &(lo, hi) in &writes {
            self.stats.write.intervals += 1;
            self.stats.write.interval_bytes += (hi - lo) * 4;
        }

        // All cross-tree checks first (they only read the opposite tree),
        // then the strand's whole sorted disjoint run list goes into its own
        // tree as ONE bulk insert — the treap's append fast path turns n
        // root-to-leaf insertions into an O(n) build plus an O(lg n) join
        // whenever the batch lands beyond the stored cover. Checks and
        // inserts touch different trees, so the phase split observes exactly
        // the history a per-interval check-then-insert loop would.
        for &(lo, hi) in &reads {
            let report = &mut self.report;
            self.write_tree.query_overlaps(lo, hi, |old, olo, ohi| {
                if old != TOMBSTONE && cache.parallel_with_cur(old, reach) {
                    report.add_r(RaceKind::WriteRead, olo, ohi, old, s, reach);
                }
            });
        }
        self.read_tree.insert_reads_for(s, &reads, |old| {
            old == TOMBSTONE || cache.cur_left_of(old, reach)
        });
        for &(lo, hi) in &writes {
            let report = &mut self.report;
            self.read_tree.query_overlaps(lo, hi, |old, olo, ohi| {
                if old != TOMBSTONE && cache.parallel_with_cur(old, reach) {
                    report.add_r(RaceKind::ReadWrite, olo, ohi, old, s, reach);
                }
            });
        }
        let report = &mut self.report;
        self.write_tree
            .insert_writes_for(s, &writes, |old, olo, ohi| {
                if old != TOMBSTONE && cache.parallel_with_cur(old, reach) {
                    report.add_r(RaceKind::WriteWrite, olo, ohi, old, s, reach);
                }
            });
        reads.clear();
        writes.clear();
        self.scratch_r = reads;
        self.scratch_w = writes;
        self.timer.end(t0, &mut self.stats.ah_time);

        // Interval budget: the flush that crosses the cap completes (its
        // checks above already ran against the pre-strand history), then the
        // detector goes dead — sound up to this point.
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
        let (r, w) = d.tree_sizes();
        assert_eq!(r, 1, "read tree holds one replacing interval");
        assert_eq!(w, 1, "write tree holds one replacing interval");
    }
}
