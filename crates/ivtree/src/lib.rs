//! Interval-based access history — the paper's core contribution (Section 4).
//!
//! A race detector's access history must answer, for every new access, "which
//! previously recorded accesses conflict with this one?" and then record the
//! new access. STINT records accesses as *intervals* — contiguous ranges of
//! 4-byte words accessed by a single strand — in two search trees (one for
//! reads, one for writes) that maintain the **non-overlap invariant**: the
//! intervals stored in a tree are pairwise disjoint, because each word has
//! exactly one *last writer* and one *leftmost reader*.
//!
//! Two interchangeable implementations are provided:
//!
//! * [`Treap`] — the paper's randomized balanced BST. Insertion and query of
//!   an interval `x` cost O(h + k), where `h` is the tree height (O(lg n)
//!   w.h.p.) and `k` the number of stored intervals overlapping `x`
//!   (Lemma 4.2). The implementation follows the paper's case analysis:
//!   `INSERTWRITEINTERVAL` cases A–D with `REMOVEOVERLAPLEFT`/`-RIGHT`
//!   (Figures 2–3), and `INSERTREADINTERVAL` with left-of resolution
//!   (Figure 4). A read insert reaches its cases by a read-only probe and
//!   repairs the path above them only where a subtree root changed, so the
//!   common re-read — same bounds stored, reader kept or replaced — costs a
//!   descent and one left-of question, no writes to the tree's links.
//! * [`FlatStore`] — the same semantics on a `BTreeMap` keyed by interval
//!   start. Simpler and obviously correct; used as the differential-testing
//!   oracle and as the "any balanced BST would work" baseline.
//!
//! Both are generic over the accessor type `A` (the detector instantiates
//! `A = StrandId`); the *left-of* relation needed by read insertion is passed
//! in as a closure, keeping this crate independent of the reachability
//! machinery.
//!
//! # Semantics shared by both stores
//!
//! * `insert_write(x, conflict)` — record `x` in the write tree. The
//!   previous accessor of every overlapped region is reported through
//!   `conflict(old_accessor, lo, hi)`; afterwards `x.who` is the recorded
//!   accessor of `[x.start, x.end)` (the new write is always the *last*
//!   writer, so old intervals are trimmed or removed — paper §4.1).
//! * `insert_read(x, is_new_left_of)` — record `x` in the read tree. For
//!   each overlapped region the recorded accessor becomes whichever of the
//!   old and new reader is *left of* the other, as decided by the
//!   `is_new_left_of(old_accessor)` predicate (paper §4.2). Reads don't
//!   conflict with reads, so no conflicts are reported.
//! * `query_overlaps(lo, hi, f)` — report every stored interval overlapping
//!   `[lo, hi)` without modifying the store (paper §4.3): a write interval is
//!   checked against the read tree, and a read interval against the write
//!   tree, before insertion into its own tree.

pub mod flat;
pub mod treap;

pub use flat::FlatStore;
pub use treap::Treap;

/// An interval of 4-byte words `[start, end)` accessed by `who`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval<A> {
    pub start: u64,
    pub end: u64,
    pub who: A,
}

impl<A> Interval<A> {
    #[inline]
    pub fn new(start: u64, end: u64, who: A) -> Self {
        debug_assert!(start < end, "empty interval");
        Interval { start, end, who }
    }

    /// Length in words.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Operation counters shared by both stores (the paper's Figure 8 reports
/// `ops`, average `visited` nodes per op and average `overlaps` per op).
#[derive(Clone, Copy, Debug, Default)]
pub struct OpStats {
    /// Top-level operations (inserts + queries).
    pub ops: u64,
    /// Tree nodes visited across all operations — for the treap's bulk
    /// entry points that includes the nodes its splits and joins walk, so
    /// `visited / ops` is the whole cost of a run, cut included.
    pub visited: u64,
    /// Overlapping stored intervals encountered across all operations.
    pub overlaps: u64,
    /// Top-level insert operations (Lemma 4.1's `m`).
    pub inserts: u64,
    /// Most intervals stored at once. Per store Lemma 4.1 bounds this by
    /// `2*inserts + 1`; a merge of `k` stores is bounded by `2*inserts + k`.
    pub len_hw: u64,
    /// Heap bytes held by the store when stats were collected (exact for the
    /// treap arena, an occupancy estimate for the B-tree reference store).
    pub bytes: u64,
}

impl OpStats {
    pub fn avg_visited(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.visited as f64 / self.ops as f64
        }
    }
    pub fn avg_overlaps(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.overlaps as f64 / self.ops as f64
        }
    }
    pub fn merge(&mut self, o: &OpStats) {
        self.ops += o.ops;
        self.visited += o.visited;
        self.overlaps += o.overlaps;
        self.inserts += o.inserts;
        self.len_hw += o.len_hw;
        self.bytes += o.bytes;
    }
}

/// Common interface of the two interval stores, so detectors and benches can
/// be generic over the access-history implementation.
pub trait IntervalStore<A: Copy> {
    /// See module docs. `conflict(old_accessor, lo, hi)` is invoked once per
    /// overlapped stored interval with the overlap region.
    fn insert_write(&mut self, x: Interval<A>, conflict: impl FnMut(A, u64, u64));
    /// See module docs. `is_new_left_of(old)` returns true when the *new*
    /// reader is left of the stored reader `old`.
    fn insert_read(&mut self, x: Interval<A>, is_new_left_of: impl FnMut(A) -> bool);
    /// Report every stored interval overlapping `[lo, hi)`:
    /// `f(accessor, overlap_lo, overlap_hi)`.
    fn query_overlaps(&mut self, lo: u64, hi: u64, f: impl FnMut(A, u64, u64));
    /// Number of intervals currently stored.
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// In-order contents.
    fn to_vec(&self) -> Vec<Interval<A>>;
    /// Operation counters.
    fn stats(&self) -> OpStats;

    /// Bulk-record a strand's pre-coalesced write runs: `runs` is the sorted,
    /// pairwise-disjoint word-interval list a coalescing shadow produces at
    /// strand end, all accessed by `who`. Semantically identical to one
    /// [`IntervalStore::insert_write`] per run (the default implementation,
    /// which [`FlatStore`] keeps); [`Treap`] splices the whole batch through
    /// one split–join cut of the tree.
    fn insert_writes_for(
        &mut self,
        who: A,
        runs: &[(u64, u64)],
        mut conflict: impl FnMut(A, u64, u64),
    ) {
        for &(lo, hi) in runs {
            self.insert_write(Interval::new(lo, hi, who), &mut conflict);
        }
    }

    /// Bulk-record a strand's pre-coalesced read runs (see
    /// [`IntervalStore::insert_writes_for`]; read semantics of
    /// [`IntervalStore::insert_read`]).
    fn insert_reads_for(
        &mut self,
        who: A,
        runs: &[(u64, u64)],
        mut is_new_left_of: impl FnMut(A) -> bool,
    ) {
        for &(lo, hi) in runs {
            self.insert_read(Interval::new(lo, hi, who), &mut is_new_left_of);
        }
    }
}

/// Merge adjacent intervals with equal accessors — the stores may legally
/// fragment a logically contiguous region into touching pieces, so tests
/// compare *normalized* contents.
pub fn normalize<A: Copy + PartialEq>(mut v: Vec<Interval<A>>) -> Vec<Interval<A>> {
    v.sort_by_key(|iv| iv.start);
    let mut out: Vec<Interval<A>> = Vec::with_capacity(v.len());
    for iv in v {
        match out.last_mut() {
            Some(last) if last.end == iv.start && last.who == iv.who => last.end = iv.end,
            _ => out.push(iv),
        }
    }
    out
}
