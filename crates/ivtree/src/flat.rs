//! `BTreeMap`-based reference implementation of the interval access history.
//!
//! Keeps the disjoint intervals in a `BTreeMap` keyed by interval start.
//! Because stored intervals are pairwise disjoint, they are simultaneously
//! sorted by start and by end, so the overlaps of `[lo, hi)` are found by
//! walking backwards from the last interval starting before `hi` until the
//! first one ending at or before `lo` — O(log n + k) like the treap, with the
//! B-tree's better constants on lookup but worse constants on the
//! remove/re-insert churn of interval splitting.
//!
//! The paper notes "any balanced binary search tree would work"; this store
//! is both the differential-testing oracle for [`crate::Treap`] and the
//! baseline the repo benchmark times against it (`ivtree.flat_replay_s`).

use crate::{Interval, IntervalStore, OpStats};
use std::collections::BTreeMap;

/// Reference interval store. See the crate docs for the shared semantics.
pub struct FlatStore<A> {
    map: BTreeMap<u64, (u64, A)>,
    stats: OpStats,
    inserts: u64,
    /// Most intervals ever stored at once (Lemma 4.1 watermark).
    len_hw: usize,
    /// Scratch buffer reused across operations.
    scratch: Vec<(u64, u64, A)>,
}

impl<A: Copy> Default for FlatStore<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Copy> FlatStore<A> {
    pub fn new() -> Self {
        FlatStore {
            map: BTreeMap::new(),
            stats: OpStats::default(),
            inserts: 0,
            len_hw: 0,
            scratch: Vec::new(),
        }
    }

    /// Total insert operations performed.
    pub fn insert_ops(&self) -> u64 {
        self.inserts
    }

    /// Most intervals ever stored at once (`<= 2*insert_ops() + 1`).
    pub fn len_high_water(&self) -> usize {
        self.len_hw
    }

    /// Estimated heap bytes. `BTreeMap` exposes no capacity, so this scales
    /// the entry payload by 3/2 — leaves hold up to 11 entries and average
    /// roughly two-thirds full — and adds the scratch buffer exactly.
    pub fn approx_bytes(&self) -> u64 {
        let per = std::mem::size_of::<u64>() + std::mem::size_of::<(u64, A)>();
        (self.map.len() * per * 3 / 2
            + self.scratch.capacity() * std::mem::size_of::<(u64, u64, A)>()) as u64
    }

    /// Collect `(start, end, who)` of stored intervals overlapping `[lo, hi)`
    /// in ascending order into the scratch buffer.
    fn collect_overlaps(&mut self, lo: u64, hi: u64) {
        self.scratch.clear();
        for (&s, &(e, who)) in self.map.range(..hi).rev() {
            if e <= lo {
                break; // disjoint ⇒ everything further left ends even earlier
            }
            self.scratch.push((s, e, who));
            self.stats.visited += 1;
        }
        self.scratch.reverse();
        self.stats.overlaps += self.scratch.len() as u64;
    }
}

impl<A: Copy> IntervalStore<A> for FlatStore<A> {
    fn insert_write(&mut self, x: Interval<A>, mut conflict: impl FnMut(A, u64, u64)) {
        debug_assert!(x.start < x.end);
        self.stats.ops += 1;
        self.inserts += 1;
        self.collect_overlaps(x.start, x.end);
        let ov = std::mem::take(&mut self.scratch);
        for &(s, e, who) in &ov {
            conflict(who, s.max(x.start), e.min(x.end));
            self.map.remove(&s);
            if s < x.start {
                self.map.insert(s, (x.start, who));
            }
            if e > x.end {
                self.map.insert(x.end, (e, who));
            }
        }
        self.map.insert(x.start, (x.end, x.who));
        self.scratch = ov;
        self.len_hw = self.len_hw.max(self.map.len());
    }

    fn insert_read(&mut self, x: Interval<A>, mut is_new_left_of: impl FnMut(A) -> bool) {
        debug_assert!(x.start < x.end);
        self.stats.ops += 1;
        self.inserts += 1;
        self.collect_overlaps(x.start, x.end);
        let ov = std::mem::take(&mut self.scratch);
        // Rebuild the affected region piece by piece.
        let mut cur = x.start;
        for &(s, e, who) in &ov {
            self.map.remove(&s);
            if s < x.start {
                // Prefix of the old interval outside x: old reader stays.
                self.map.insert(s, (x.start, who));
            }
            if cur < s {
                // Gap inside x before this overlap: new reader fills it.
                self.map.insert(cur, (s, x.who));
            }
            let olo = s.max(x.start);
            let ohi = e.min(x.end);
            let winner = if is_new_left_of(who) { x.who } else { who };
            self.map.insert(olo, (ohi, winner));
            if e > x.end {
                // Suffix of the old interval outside x: old reader stays.
                self.map.insert(x.end, (e, who));
            }
            cur = ohi;
        }
        if cur < x.end {
            self.map.insert(cur, (x.end, x.who));
        }
        self.scratch = ov;
        self.len_hw = self.len_hw.max(self.map.len());
    }

    fn query_overlaps(&mut self, lo: u64, hi: u64, mut f: impl FnMut(A, u64, u64)) {
        if lo >= hi {
            return;
        }
        self.stats.ops += 1;
        self.collect_overlaps(lo, hi);
        let ov = std::mem::take(&mut self.scratch);
        for &(s, e, who) in &ov {
            f(who, s.max(lo), e.min(hi));
        }
        self.scratch = ov;
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn to_vec(&self) -> Vec<Interval<A>> {
        self.map
            .iter()
            .map(|(&s, &(e, who))| Interval {
                start: s,
                end: e,
                who,
            })
            .collect()
    }

    fn stats(&self) -> OpStats {
        let mut s = self.stats;
        s.inserts = self.inserts;
        s.len_hw = self.len_hw as u64;
        s.bytes = self.approx_bytes();
        s
    }
}

impl<A: Copy> FlatStore<A> {
    /// Check disjointness and ordering (tests only).
    pub fn check_invariants(&self) {
        let mut prev_end = 0u64;
        for (&s, &(e, _)) in &self.map {
            assert!(s < e, "empty interval stored");
            assert!(s >= prev_end, "overlap in FlatStore");
            prev_end = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u64, e: u64, who: u32) -> Interval<u32> {
        Interval::new(s, e, who)
    }

    fn contents(t: &FlatStore<u32>) -> Vec<(u64, u64, u32)> {
        t.to_vec().iter().map(|i| (i.start, i.end, i.who)).collect()
    }

    #[test]
    fn write_semantics_match_treap_unit_cases() {
        let mut t = FlatStore::new();
        t.insert_write(iv(0, 30, 1), |_, _, _| {});
        let mut hits = Vec::new();
        t.insert_write(iv(10, 20, 2), |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 10, 20)]);
        assert_eq!(contents(&t), vec![(0, 10, 1), (10, 20, 2), (20, 30, 1)]);
        t.check_invariants();
    }

    #[test]
    fn write_covering_many() {
        let mut t = FlatStore::new();
        for (s, e, w) in [(0, 2, 1), (4, 6, 2), (8, 10, 3)] {
            t.insert_write(iv(s, e, w), |_, _, _| {});
        }
        let mut hits = Vec::new();
        t.insert_write(iv(1, 9, 7), |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 1, 2), (2, 4, 6), (3, 8, 9)]);
        assert_eq!(contents(&t), vec![(0, 1, 1), (1, 9, 7), (9, 10, 3)]);
        t.check_invariants();
    }

    #[test]
    fn paper_read_example() {
        let (a, b, c, d, e) = (1u32, 2, 3, 4, 5);
        let mut t = FlatStore::new();
        for (s, en, w) in [(8, 16, a), (24, 32, b), (40, 52, c), (52, 60, d)] {
            t.insert_read(iv(s, en, w), |_| true);
        }
        t.insert_read(iv(12, 56, e), |old| old == a || old == c);
        t.check_invariants();
        let got = crate::normalize(t.to_vec());
        let want = vec![
            iv(8, 12, a),
            iv(12, 24, e),
            iv(24, 32, b),
            iv(32, 52, e),
            iv(52, 60, d),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn read_gap_filling() {
        let mut t = FlatStore::new();
        for (s, e, w) in [(1, 2, 1), (3, 4, 2), (5, 6, 3)] {
            t.insert_read(iv(s, e, w), |_| true);
        }
        t.insert_read(iv(0, 7, 4), |_| false);
        t.check_invariants();
        assert_eq!(
            contents(&t),
            vec![
                (0, 1, 4),
                (1, 2, 1),
                (2, 3, 4),
                (3, 4, 2),
                (4, 5, 4),
                (5, 6, 3),
                (6, 7, 4)
            ]
        );
    }

    #[test]
    fn query_clips_to_range() {
        let mut t = FlatStore::new();
        t.insert_write(iv(0, 100, 1), |_, _, _| {});
        let mut hits = Vec::new();
        t.query_overlaps(40, 60, |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 40, 60)]);
    }
}
