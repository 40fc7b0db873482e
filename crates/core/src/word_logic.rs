//! The per-word last-writer/leftmost-reader protocol [Feng & Leiserson],
//! shared by every variant that keeps word-granularity shadow state
//! (`vanilla`, `compiler`, `comp+rts`).

use crate::report::{RaceKind, RaceReport};
use stint_shadow::{WordEntry, WordShadow, NO_STRAND};
use stint_sporder::{ReachCache, Reachability, StrandId};

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
/// so both take the identical path.
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
