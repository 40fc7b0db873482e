//! The **word history**: the word-granularity hashmap access history and
//! its per-word last-writer/leftmost-reader protocol [Feng & Leiserson],
//! shared by every variant that keeps word-granularity shadow state
//! (`vanilla` and `compiler` at every hook, `comp+rts` at every strand end).

use crate::comprts::{count_flush, AccessHistory};
use crate::report::{RaceKind, RaceReport};
use crate::stats::DetectorStats;
use crate::timing::FlushTimer;
use crate::ResourceBudget;
use stint_faults::DetectorError;
use stint_shadow::{WordEntry, WordIv, WordShadow, NO_STRAND};
use stint_sporder::{ReachCache, Reachability, StrandId};

/// The word-granularity access history: the [`WordShadow`], its reachability
/// cache and the report. `comp+rts` hands it a strand's runs at its end
/// ([`AccessHistory::flush_runs`]), `vanilla` every hook ([`Self::words`]).
pub struct WordHistory {
    shadow: WordShadow,
    cache: ReachCache,
    timer: FlushTimer,
    /// The fault plan's `panic-at-flush`, sampled at construction.
    panic_at_flush: Option<u64>,
    pub report: RaceReport,
    /// Flushes, access-history time and, after [`AccessHistory::finish`],
    /// the shadow's and the cache's counts.
    pub stats: DetectorStats,
}

impl WordHistory {
    pub fn new(report: RaceReport) -> Self {
        WordHistory {
            shadow: WordShadow::new(),
            cache: ReachCache::new(),
            timer: FlushTimer::default(),
            panic_at_flush: stint_faults::panic_at_flush(),
            report,
            stats: DetectorStats::default(),
        }
    }

    /// A strand boundary: one more flush, where `panic-at-flush` fires.
    pub fn end_strand(&mut self) {
        count_flush(&mut self.stats, self.panic_at_flush);
    }

    /// Check and update the words `[lo, hi)` that strand `s` accessed: one
    /// call per page run when `ranged`, else one lookup per word (that
    /// page-table walk is the modeled cost of the unmodified compiler).
    pub fn words<R: Reachability>(
        &mut self,
        op: WordOp,
        s: StrandId,
        lo: u64,
        hi: u64,
        reach: &R,
        ranged: bool,
    ) {
        let (report, cache) = (&mut self.report, &mut self.cache);
        cache.begin_strand(s);
        if ranged {
            replay_interval(&mut self.shadow, op, lo, hi, s, reach, cache, report);
            return;
        }
        // `op` is matched outside the loop, so each loop stays monomorphic.
        match op {
            WordOp::Read => {
                for w in lo..hi {
                    read_word(self.shadow.entry_mut(w), w, s, reach, cache, report);
                }
            }
            WordOp::Write => {
                for w in lo..hi {
                    write_word(self.shadow.entry_mut(w), w, s, reach, cache, report);
                }
            }
        }
    }
}

impl AccessHistory for WordHistory {
    /// On exhaustion the [`WordShadow`] degrades to an always-empty sink
    /// page (sound: nothing past the cap can satisfy a race predicate).
    fn with_budget(mut self, b: ResourceBudget) -> Self {
        if let Some(bytes) = b.max_shadow_bytes {
            self.shadow.set_page_cap(bytes / WordShadow::BYTES_PER_PAGE);
        }
        self
    }

    #[inline(always)]
    fn report(&mut self) -> &mut RaceReport {
        &mut self.report
    }

    /// Reads first: a strand's own write must not mask an earlier writer
    /// its read races with (DESIGN.md §3).
    fn flush_runs<R: Reachability>(
        &mut self,
        s: StrandId,
        reads: &[WordIv],
        writes: &[WordIv],
        reach: &R,
    ) {
        self.end_strand();
        let t0 = self.timer.begin();
        let _span = stint_obs::span("comprts.flush");
        let (shadow, cache, report) = (&mut self.shadow, &mut self.cache, &mut self.report);
        cache.begin_strand(s);
        for (op, runs) in [(WordOp::Read, reads), (WordOp::Write, writes)] {
            for &(lo, hi) in runs {
                replay_interval(shadow, op, lo, hi, s, reach, cache, report);
            }
        }
        self.timer.end(t0, &mut self.stats.ah_time);
    }

    fn tombstone(&mut self, lo: u64, hi: u64) {
        self.shadow.clear_range(lo, hi);
    }

    fn finish(&mut self) -> DetectorStats {
        self.stats.hash_ops = self.shadow.ops;
        self.stats.reach_hits = self.cache.hits;
        self.stats.reach_misses = self.cache.misses;
        self.stats.reach_flushes = self.cache.flushes;
        self.stats.page_batches = self.shadow.batches;
        self.stats.page_batch_words = self.shadow.batched_words;
        self.stats.ah_bytes = self.shadow.heap_bytes();
        self.stats
    }

    fn failure(&self) -> Option<DetectorError> {
        self.shadow.exhausted()
    }
}

/// Process a write by strand `s` to the word `w` with shadow entry `e`.
/// Reachability answers are memoized in `cache`, which the caller must have
/// pointed at `s` via [`ReachCache::begin_strand`].
#[inline]
pub fn write_word<R: Reachability>(
    e: &mut WordEntry,
    w: u64,
    s: StrandId,
    reach: &R,
    cache: &mut ReachCache,
    report: &mut RaceReport,
) {
    debug_assert_eq!(cache.current(), s);
    if e.reader != NO_STRAND {
        let r = StrandId(e.reader);
        if cache.parallel_with_cur(r, reach) {
            report.add_r(RaceKind::ReadWrite, w, w + 1, r, s, reach);
        }
    }
    if e.writer != NO_STRAND {
        let wr = StrandId(e.writer);
        if cache.parallel_with_cur(wr, reach) {
            report.add_r(RaceKind::WriteWrite, w, w + 1, wr, s, reach);
        }
    }
    // The current strand is always the new last writer (sequential order).
    e.writer = s.0;
}

/// Process a read by strand `s` of the word `w` with shadow entry `e`; the
/// cache contract is [`write_word`]'s.
#[inline]
pub fn read_word<R: Reachability>(
    e: &mut WordEntry,
    w: u64,
    s: StrandId,
    reach: &R,
    cache: &mut ReachCache,
    report: &mut RaceReport,
) {
    debug_assert_eq!(cache.current(), s);
    if e.writer != NO_STRAND {
        let wr = StrandId(e.writer);
        if cache.parallel_with_cur(wr, reach) {
            report.add_r(RaceKind::WriteRead, w, w + 1, wr, s, reach);
        }
    }
    // Keep whichever reader is leftmost. Under sequential execution the new
    // reader is left of the stored one exactly when they are in series.
    if e.reader == NO_STRAND || cache.cur_left_of(StrandId(e.reader), reach) {
        e.reader = s.0;
    }
}

/// Which word operation an interval replay performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WordOp {
    Read,
    Write,
}

/// Replay the interval `[lo, hi)` against the word shadow, page run by page
/// run ([`WordShadow::process_range_on_page`]: one page-table resolution per
/// up to 4096 words), answering reachability queries through `cache`.
///
/// Shared by the `compiler` ranged path and the `comp+rts` strand-end replay
/// ([`WordHistory`]) so both take the identical path.
#[inline]
#[allow(clippy::too_many_arguments)] // flat arg list keeps the hook path monomorphic and borrow-friendly
pub fn replay_interval<R: Reachability>(
    shadow: &mut WordShadow,
    op: WordOp,
    lo: u64,
    hi: u64,
    s: StrandId,
    reach: &R,
    cache: &mut ReachCache,
    report: &mut RaceReport,
) {
    if lo >= hi {
        return;
    }
    // `op` is matched per page run (not per word) so each arm compiles to a
    // monomorphic inner loop over the page slice.
    //
    // Uniform runs are short-circuited: consecutive words of a replayed
    // interval overwhelmingly hold the identical (reader, writer) pair (a
    // single earlier interval populated them), and the word protocol's
    // decisions depend only on that pair and `s`. A word whose entry equals
    // the previous race-free input is rewritten to the previous output
    // without re-deciding anything; racy inputs are never memoized (each
    // racy word must reach `report.add` itself).
    shadow.process_range_on_page(lo, hi, |w0, entries| {
        let mut memo: Option<(WordEntry, WordEntry)> = None;
        match op {
            WordOp::Read => {
                for (i, e) in entries.iter_mut().enumerate() {
                    if let Some((pin, pout)) = memo {
                        if *e == pin {
                            *e = pout;
                            continue;
                        }
                    }
                    let before = *e;
                    let races = report.total;
                    read_word(e, w0 + i as u64, s, reach, cache, report);
                    memo = (report.total == races).then_some((before, *e));
                }
            }
            WordOp::Write => {
                for (i, e) in entries.iter_mut().enumerate() {
                    if let Some((pin, pout)) = memo {
                        if *e == pin {
                            *e = pout;
                            continue;
                        }
                    }
                    let before = *e;
                    let races = report.total;
                    write_word(e, w0 + i as u64, s, reach, cache, report);
                    memo = (report.total == races).then_some((before, *e));
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stint_sporder::SpOrder;

    /// Build a tiny SP structure: root spawns child (parallel with
    /// continuation), then syncs.
    fn fixture() -> (SpOrder, StrandId, StrandId, StrandId, StrandId) {
        let (mut sp, root) = SpOrder::new();
        let j = sp.new_sync_strand(root);
        let s = sp.spawn(root);
        (sp, root, s.child, s.continuation, j)
    }

    /// One word's shadow entry driven through the protocol, pointing the
    /// cache at each accessing strand as the detectors do.
    struct Word<'a> {
        sp: &'a SpOrder,
        w: u64,
        e: WordEntry,
        cache: ReachCache,
        rep: RaceReport,
    }

    impl<'a> Word<'a> {
        fn new(sp: &'a SpOrder, w: u64) -> Self {
            Word {
                sp,
                w,
                e: WordEntry::EMPTY,
                cache: ReachCache::new(),
                rep: RaceReport::default(),
            }
        }
        fn write(&mut self, s: StrandId) {
            self.cache.begin_strand(s);
            write_word(
                &mut self.e,
                self.w,
                s,
                self.sp,
                &mut self.cache,
                &mut self.rep,
            );
        }
        fn read(&mut self, s: StrandId) {
            self.cache.begin_strand(s);
            read_word(
                &mut self.e,
                self.w,
                s,
                self.sp,
                &mut self.cache,
                &mut self.rep,
            );
        }
    }

    #[test]
    fn parallel_write_write_races() {
        let (sp, _root, child, cont, _j) = fixture();
        let mut x = Word::new(&sp, 5);
        x.write(child);
        assert!(x.rep.is_race_free());
        x.write(cont);
        assert_eq!(x.rep.total, 1);
        assert_eq!(x.rep.races()[0].kind, RaceKind::WriteWrite);
        assert_eq!(x.e.writer, cont.0, "new write becomes last writer");
    }

    #[test]
    fn series_accesses_do_not_race() {
        let (sp, root, child, _cont, j) = fixture();
        let mut x = Word::new(&sp, 5);
        x.write(root);
        x.write(child); // root ≺ child
        x.read(j); // child ≺ j
        assert!(x.rep.is_race_free());
        assert_eq!(x.e.reader, j.0);
    }

    #[test]
    fn parallel_read_then_write_races() {
        let (sp, _root, child, cont, _j) = fixture();
        let mut x = Word::new(&sp, 9);
        x.read(child);
        x.write(cont);
        assert_eq!(x.rep.total, 1);
        assert_eq!(x.rep.races()[0].kind, RaceKind::ReadWrite);
    }

    #[test]
    fn parallel_write_then_read_races() {
        let (sp, _root, child, cont, _j) = fixture();
        let mut x = Word::new(&sp, 9);
        x.write(child);
        x.read(cont);
        assert_eq!(x.rep.total, 1);
        assert_eq!(x.rep.races()[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn parallel_reads_do_not_race_and_leftmost_is_kept() {
        let (sp, _root, child, cont, j) = fixture();
        let mut x = Word::new(&sp, 1);
        x.read(child);
        x.read(cont);
        assert!(x.rep.is_race_free());
        // child executed first and is parallel with cont ⇒ child is leftmost.
        assert_eq!(x.e.reader, child.0);
        // A series successor replaces the leftmost reader.
        x.read(j);
        assert_eq!(x.e.reader, j.0);
        assert!(x.rep.is_race_free());
    }

    /// The entry's evolution and the races over a script that revisits
    /// strands, so memoized answers are reused after the cache was pointed
    /// elsewhere and back.
    #[test]
    fn entry_evolution_over_a_mixed_script() {
        let (sp, root, child, cont, j) = fixture();
        let mut x = Word::new(&sp, 7);
        // (is_read, strand) → (reader, writer, races so far)
        let script = [
            ((false, root), (NO_STRAND, root.0, 0)),
            ((true, child), (child.0, root.0, 0)),
            ((false, cont), (child.0, cont.0, 1)), // read-write with child
            ((true, cont), (child.0, cont.0, 1)),  // child stays leftmost
            ((false, child), (child.0, child.0, 2)), // write-write with cont
            ((true, j), (j.0, child.0, 2)),
            ((false, j), (j.0, j.0, 2)),
        ];
        for ((is_read, s), (reader, writer, races)) in script {
            if is_read {
                x.read(s);
            } else {
                x.write(s);
            }
            assert_eq!(
                (x.e.reader, x.e.writer, x.rep.total),
                (reader, writer, races)
            );
        }
        assert_eq!(x.rep.racy_words(), vec![7]);
        let kinds: Vec<RaceKind> = x.rep.races().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [RaceKind::ReadWrite, RaceKind::WriteWrite]);
    }

    /// A replayed range that crosses the 4096-word page boundary reports
    /// exactly the overlap, one race per word.
    #[test]
    fn replay_interval_crosses_pages() {
        let (sp, _root, child, cont, _j) = fixture();
        let (lo, hi) = (4000u64, 4200u64);
        let mut shadow = WordShadow::new();
        let mut cache = ReachCache::new();
        let mut rep = RaceReport::default();
        cache.begin_strand(child);
        replay_interval(
            &mut shadow,
            WordOp::Write,
            lo,
            hi,
            child,
            &sp,
            &mut cache,
            &mut rep,
        );
        cache.begin_strand(cont);
        replay_interval(
            &mut shadow,
            WordOp::Read,
            lo + 50,
            hi + 50,
            cont,
            &sp,
            &mut cache,
            &mut rep,
        );
        assert_eq!(rep.racy_words(), (lo + 50..hi).collect::<Vec<u64>>());
        assert_eq!(rep.total, 150);
    }
}
