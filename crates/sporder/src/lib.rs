//! SP-Order reachability for fork-join programs [Bender, Fineman, Gilbert,
//! Leiserson — SPAA 2004].
//!
//! SP-Order executes a fork-join computation *sequentially* (depth-first,
//! spawned-child first) and maintains two total orders over the executed
//! strands:
//!
//! * the **English** order — the sequential execution order (left-to-right
//!   traversal of the SP parse tree), and
//! * the **Hebrew** order — its mirror (right-to-left traversal).
//!
//! Two strands are **in series** (`a ≺ b`) iff `a` precedes `b` in *both*
//! orders, and **logically parallel** iff the orders disagree. Both orders are
//! kept in order-maintenance lists, so every query is O(1).
//!
//! # Maintenance rules
//!
//! Let `cur` be the strand executing a `spawn`, belonging to a *sync block*
//! (the region of its function between two syncs). The invariant is that all
//! OM nodes belonging to the block's subcomputation lie strictly between
//! `cur`'s nodes and the block's *sync strand* nodes in both lists.
//!
//! * On the **first spawn of a sync block**, create the block's sync strand
//!   `j` by inserting right after `cur` in both lists (everything inserted
//!   later lands between `cur` and `j`).
//! * On **every spawn**, create the child strand `c` and the continuation
//!   strand `k`:
//!   * English: insert after `cur` so the result is `cur, c, k`;
//!   * Hebrew: insert after `cur` so the result is `cur, k, c`.
//! * On **sync** (explicit, or the implicit one at a spawned function's
//!   return), execution continues as the block's sync strand `j` (a no-op if
//!   nothing was spawned since the previous sync).
//!
//! With these rules, for strands `a` executed before `b` (so `a <_E b`
//! always): `a ≺ b` iff `a <_H b`, and `a ∥ b` iff `b <_H a`.
//!
//! The correctness of these rules is differentially tested against the
//! brute-force transitive-closure oracle in `stint-spdag` on thousands of
//! random fork-join programs (see `tests/oracle.rs`).

use stint_om::{OmList, OmNode};

mod cache;
mod depa;
pub use cache::ReachCache;
pub use depa::DePaReach;

// Observability (no-ops costing one relaxed load while `stint-obs` is
// disabled). The strand-local cache's hit/miss/flush counters live in
// `cache.rs`.
static OBS_SERIES_QUERIES: stint_obs::Counter = stint_obs::Counter::new("sporder.series_queries");
static OBS_PARALLEL_QUERIES: stint_obs::Counter =
    stint_obs::Counter::new("sporder.parallel_queries");
static OBS_LEFT_OF_QUERIES: stint_obs::Counter = stint_obs::Counter::new("sporder.left_of_queries");
static OBS_BYTES: stint_obs::Gauge = stint_obs::Gauge::new("sporder.bytes");

/// Identifier of an executed strand. Dense, allocated in creation order
/// (creation order is *not* the sequential execution order for sync strands,
/// which are created at the first spawn of their block).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct StrandId(pub u32);

impl StrandId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The reachability interface race detectors consume.
///
/// The paper notes (§7) that its access history "would work out of the box in
/// other instances, such as race detectors for pipelines or 2D grids, since
/// it is still sufficient to store one reader and one writer for each memory
/// location". This trait is that seam: detectors are generic over it, and
/// `stint-grid` provides a coordinate-based implementation for 2-D wavefront
/// programs alongside [`SpOrder`] for fork-join programs.
///
/// Implementations must be consistent with some *sequential* execution order
/// in which the detector observes strands: for strands `a` observed before
/// `b`, exactly one of `series(a, b)` / `parallel(a, b)` holds.
pub trait Reachability {
    /// `a` logically precedes `b` (`a ≺ b`). False for `a == b`.
    fn series(&self, a: StrandId, b: StrandId) -> bool;
    /// `a` and `b` are logically parallel. False for `a == b`.
    fn parallel(&self, a: StrandId, b: StrandId) -> bool;
    /// `a` is *left of* `b` (see [`SpOrder::left_of`]). Under sequential
    /// observation this decides whether a new reader replaces the stored
    /// leftmost reader.
    fn left_of(&self, a: StrandId, b: StrandId) -> bool;

    /// The raw order evidence behind a `series`/`parallel` verdict:
    /// `(a <_E b, a <_H b)` — `a` before `b` in the English and Hebrew
    /// orders. Series iff both bits agree and are true; parallel iff the
    /// bits disagree. `(false, false)` for `a == b`. The default derives the
    /// bits from `series`/`left_of`; implementations holding the orders
    /// directly (ranks, OM lists) should override with direct comparisons.
    fn order_pair(&self, a: StrandId, b: StrandId) -> (bool, bool) {
        if a == b {
            (false, false)
        } else if self.series(a, b) {
            (true, true)
        } else if self.series(b, a) {
            (false, false)
        } else if self.left_of(a, b) {
            // Parallel with `a` sequentially first: a <_E b, b <_H a.
            (true, false)
        } else {
            (false, true)
        }
    }

    /// The strand that spawned (or sync-continued into) `s` — the edge of
    /// the spawn-tree lineage race witnesses carry. `None` when the
    /// implementation does not track lineage (it is explanatory context;
    /// the rank evidence above is the proof) or for the root strand.
    fn parent_of(&self, _s: StrandId) -> Option<StrandId> {
        None
    }
}

impl Reachability for SpOrder {
    #[inline]
    fn series(&self, a: StrandId, b: StrandId) -> bool {
        SpOrder::series(self, a, b)
    }
    #[inline]
    fn parallel(&self, a: StrandId, b: StrandId) -> bool {
        SpOrder::parallel(self, a, b)
    }
    #[inline]
    fn left_of(&self, a: StrandId, b: StrandId) -> bool {
        SpOrder::left_of(self, a, b)
    }
    #[inline]
    fn order_pair(&self, a: StrandId, b: StrandId) -> (bool, bool) {
        // Direct rank comparison: one English and one Hebrew `precedes`
        // instead of the default's up-to-two `series` plus a `left_of`
        // (counted as a single series-shaped query).
        OBS_SERIES_QUERIES.incr();
        if a == b {
            return (false, false);
        }
        let (ae, ah) = self.strands[a.index()];
        let (be, bh) = self.strands[b.index()];
        (self.eng.precedes(ae, be), self.heb.precedes(ah, bh))
    }
    #[inline]
    fn parent_of(&self, s: StrandId) -> Option<StrandId> {
        SpOrder::parent_of(self, s)
    }
}

/// The *maintenance* interface of a reachability substrate: what the
/// sequential executor (`stint-cilk`) needs to grow one alongside the
/// running program. [`Reachability`] is the query half that detectors see;
/// this is the construction half. Two substrates implement it:
/// [`SpOrder`] (mutable order-maintenance lists) and [`DePaReach`]
/// (immutable depth-vector timestamps, lock-free queries).
///
/// The executor guarantees one call sequence per execution regardless of the
/// substrate — `new_sync_strand` before the block's first `spawn`, a
/// `call_enter`/`call_exit` bracket around serial calls, `child_return`
/// after a spawned child's subcomputation finishes — so both substrates
/// allocate identical [`StrandId`]s with identical lineage and freeze to
/// identical rank permutations.
pub trait ReachMaint: Reachability {
    /// Create the substrate together with the root strand.
    fn init() -> (Self, StrandId)
    where
        Self: Sized;
    /// Create the sync strand of the sync block whose first spawn `cur` is
    /// executing. Must precede that spawn's [`ReachMaint::spawn`].
    fn new_sync_strand(&mut self, cur: StrandId) -> StrandId;
    /// Register a spawn by `cur`; returns the child's first strand and the
    /// continuation strand (pushed in that id order).
    fn spawn(&mut self, cur: StrandId) -> SpawnStrands;
    /// `cur` performs a serial call (fresh sync scope). Default: no-op —
    /// SP-Order needs no frame bookkeeping.
    fn call_enter(&mut self, _cur: StrandId) {}
    /// The serial call returned (after its implicit sync). Default: no-op.
    fn call_exit(&mut self, _cur: StrandId) {}
    /// A spawned child's subcomputation finished (after its implicit sync);
    /// `cur` is its final strand. Default: no-op.
    fn child_return(&mut self, _cur: StrandId) {}
    /// Number of strands registered so far.
    fn strand_count(&self) -> usize;
    /// Heap bytes owned by the substrate (space accounting).
    fn heap_bytes(&self) -> u64;
    /// Snapshot into rank permutations (with lineage).
    fn freeze(&self) -> FrozenReach;
}

impl ReachMaint for SpOrder {
    fn init() -> (Self, StrandId) {
        SpOrder::new()
    }
    #[inline]
    fn new_sync_strand(&mut self, cur: StrandId) -> StrandId {
        SpOrder::new_sync_strand(self, cur)
    }
    #[inline]
    fn spawn(&mut self, cur: StrandId) -> SpawnStrands {
        SpOrder::spawn(self, cur)
    }
    fn strand_count(&self) -> usize {
        SpOrder::strand_count(self)
    }
    fn heap_bytes(&self) -> u64 {
        SpOrder::heap_bytes(self)
    }
    fn freeze(&self) -> FrozenReach {
        SpOrder::freeze(self)
    }
}

/// Result of registering a spawn: the spawned child's first strand and the
/// parent's continuation strand.
#[derive(Clone, Copy, Debug)]
pub struct SpawnStrands {
    pub child: StrandId,
    pub continuation: StrandId,
}

/// The SP-Order reachability structure over two labelled order-maintenance
/// lists (O(log n) amortized maintenance, O(1) queries).
pub struct SpOrder {
    eng: OmList,
    heb: OmList,
    /// Per strand: (English node, Hebrew node).
    strands: Vec<(OmNode, OmNode)>,
    /// Per strand: the strand that created it ([`NO_PARENT`] for the root) —
    /// the spawn-tree lineage race witnesses walk.
    parents: Vec<u32>,
    /// Bytes last reported to the `sporder.bytes` gauge for the strand table
    /// (the OM lists account for themselves via `om.bytes`).
    owned_bytes: u64,
}

/// Sentinel parent of the root strand in lineage tables.
pub const NO_PARENT: u32 = u32::MAX;

impl Drop for SpOrder {
    fn drop(&mut self) {
        OBS_BYTES.reconcile(&mut self.owned_bytes, 0);
    }
}

impl Default for SpOrder {
    fn default() -> Self {
        Self::new().0
    }
}

impl SpOrder {
    /// Create the structure together with the root strand of the computation.
    pub fn new() -> (Self, StrandId) {
        let mut eng = OmList::default();
        let mut heb = OmList::default();
        let e = eng.insert_first();
        let h = heb.insert_first();
        (
            SpOrder {
                eng,
                heb,
                strands: vec![(e, h)],
                parents: vec![NO_PARENT],
                owned_bytes: 0,
            },
            StrandId(0),
        )
    }

    /// Number of strands registered so far.
    #[inline]
    pub fn strand_count(&self) -> usize {
        self.strands.len()
    }

    /// Heap bytes owned by the strand table (the OM lists report their own
    /// footprint through `om.bytes`).
    pub fn heap_bytes(&self) -> u64 {
        (self.strands.capacity() * std::mem::size_of::<(OmNode, OmNode)>()
            + self.parents.capacity() * std::mem::size_of::<u32>()) as u64
    }

    fn push(&mut self, e: OmNode, h: OmNode, parent: u32) -> StrandId {
        let id = self.strands.len();
        assert!(id < u32::MAX as usize, "strand count exceeds u32");
        self.strands.push((e, h));
        self.parents.push(parent);
        if stint_obs::is_enabled() {
            let bytes = self.heap_bytes();
            OBS_BYTES.reconcile(&mut self.owned_bytes, bytes);
        }
        StrandId(id as u32)
    }

    /// Create the sync strand for a sync block whose first spawn is being
    /// executed by `cur`. Must be called *before* [`SpOrder::spawn`] for that
    /// spawn.
    pub fn new_sync_strand(&mut self, cur: StrandId) -> StrandId {
        let (ce, ch) = self.strands[cur.index()];
        let je = self.eng.insert_after(ce);
        let jh = self.heb.insert_after(ch);
        self.push(je, jh, cur.0)
    }

    /// Register a spawn executed by `cur`, returning the child's first strand
    /// and the continuation strand.
    pub fn spawn(&mut self, cur: StrandId) -> SpawnStrands {
        let (ce, ch) = self.strands[cur.index()];
        // English: cur, child, continuation  (insert cont first, then child).
        let ke = self.eng.insert_after(ce);
        let se = self.eng.insert_after(ce);
        // Hebrew: cur, continuation, child  (insert child first, then cont).
        let sh = self.heb.insert_after(ch);
        let kh = self.heb.insert_after(ch);
        let child = self.push(se, sh, cur.0);
        let continuation = self.push(ke, kh, cur.0);
        SpawnStrands {
            child,
            continuation,
        }
    }

    /// The strand that created `s` (`None` for the root).
    #[inline]
    pub fn parent_of(&self, s: StrandId) -> Option<StrandId> {
        let p = self.parents[s.index()];
        (p != NO_PARENT).then_some(StrandId(p))
    }

    /// True if strand `a` logically precedes strand `b` (series, `a ≺ b`).
    #[inline]
    pub fn series(&self, a: StrandId, b: StrandId) -> bool {
        OBS_SERIES_QUERIES.incr();
        if a == b {
            return false;
        }
        let (ae, ah) = self.strands[a.index()];
        let (be, bh) = self.strands[b.index()];
        self.eng.precedes(ae, be) && self.heb.precedes(ah, bh)
    }

    /// True if strands `a` and `b` are logically parallel.
    #[inline]
    pub fn parallel(&self, a: StrandId, b: StrandId) -> bool {
        OBS_PARALLEL_QUERIES.incr();
        if a == b {
            return false;
        }
        let (ae, ah) = self.strands[a.index()];
        let (be, bh) = self.strands[b.index()];
        self.eng.precedes(ae, be) != self.heb.precedes(ah, bh)
    }

    /// True if `a` is *left of* `b`: either `a ∥ b` and `a` precedes `b` in
    /// the sequential order, or `a` is in series with `b` and follows it.
    /// Equivalently: `b` precedes `a` in the Hebrew order... no — `a` is left
    /// of `b` iff `b <_H a` is false and... see below.
    ///
    /// Derivation: writing `<_E`/`<_H` for the two orders,
    /// * case 1 (parallel, `a` first sequentially): `a <_E b` and `b <_H a`;
    /// * case 2 (series, `a` after `b`): `b <_E a` and `b <_H a`.
    ///
    /// Both cases are exactly `b <_H a`, and conversely `b <_H a` implies one
    /// of the two cases. So `left_of(a, b) ⟺ b <_H a`.
    #[inline]
    pub fn left_of(&self, a: StrandId, b: StrandId) -> bool {
        OBS_LEFT_OF_QUERIES.incr();
        if a == b {
            return false;
        }
        let ah = self.strands[a.index()].1;
        let bh = self.strands[b.index()].1;
        self.heb.precedes(bh, ah)
    }

    /// True if `a` precedes `b` in the English (sequential) order.
    #[inline]
    pub fn english_precedes(&self, a: StrandId, b: StrandId) -> bool {
        let ae = self.strands[a.index()].0;
        let be = self.strands[b.index()].0;
        self.eng.precedes(ae, be)
    }

    /// Snapshot the current orders into a [`FrozenReach`] (O(n log n)).
    pub fn freeze(&self) -> FrozenReach {
        let n = self.strands.len();
        let rank_of = |which_heb: bool| -> Vec<u32> {
            let mut idx: Vec<u32> = (0..n as u32).collect();
            idx.sort_by(|&x, &y| {
                let hx = self.strands[x as usize];
                let hy = self.strands[y as usize];
                let before = if which_heb {
                    self.heb.precedes(hx.1, hy.1)
                } else {
                    self.eng.precedes(hx.0, hy.0)
                };
                if before {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            });
            let mut rank = vec![0u32; n];
            for (r, &i) in idx.iter().enumerate() {
                rank[i as usize] = r as u32;
            }
            rank
        };
        FrozenReach {
            eng_rank: rank_of(false),
            heb_rank: rank_of(true),
            parents: Some(self.parents.clone()),
        }
    }
}

/// A reachability snapshot: each strand's rank in the English and Hebrew
/// orders. Freezing a [`SpOrder`] yields a compact, serializable
/// structure that answers the same queries — useful for persisting recorded
/// traces (see `stint::trace`) and for replaying them in later processes.
#[derive(Clone, Debug)]
pub struct FrozenReach {
    eng_rank: Vec<u32>,
    heb_rank: Vec<u32>,
    /// Optional spawn-tree lineage ([`NO_PARENT`] marks the root). `None`
    /// when the snapshot came from a source that does not carry lineage
    /// (old v1 traces, the compressed v2 header, bare `from_ranks`); the
    /// reachability answers are identical either way — lineage only enriches
    /// race witnesses.
    parents: Option<Vec<u32>>,
}

/// Equality compares the *reachability substrate* (the two rank
/// permutations) only: a snapshot that lost its optional lineage on a
/// round-trip through a lineage-free encoding still answers every query
/// identically and must compare equal.
impl PartialEq for FrozenReach {
    fn eq(&self, other: &Self) -> bool {
        self.eng_rank == other.eng_rank && self.heb_rank == other.heb_rank
    }
}
impl Eq for FrozenReach {}

impl FrozenReach {
    /// Reconstruct from previously exported ranks.
    ///
    /// # Panics
    /// Panics if the two vectors differ in length or are not permutations of
    /// `0..n`.
    pub fn from_ranks(eng_rank: Vec<u32>, heb_rank: Vec<u32>) -> FrozenReach {
        assert_eq!(eng_rank.len(), heb_rank.len());
        let n = eng_rank.len() as u32;
        let check = |v: &[u32]| {
            let mut seen = vec![false; v.len()];
            for &r in v {
                assert!(r < n && !seen[r as usize], "ranks must be a permutation");
                seen[r as usize] = true;
            }
        };
        check(&eng_rank);
        check(&heb_rank);
        FrozenReach {
            eng_rank,
            heb_rank,
            parents: None,
        }
    }

    /// Attach a spawn-tree lineage table (one entry per strand,
    /// [`NO_PARENT`] for the root).
    ///
    /// # Panics
    /// Panics if the table's length disagrees with the strand count or an
    /// entry points at an out-of-range strand or at itself.
    pub fn with_parents(mut self, parents: Vec<u32>) -> FrozenReach {
        assert_eq!(parents.len(), self.eng_rank.len(), "one parent per strand");
        for (i, &p) in parents.iter().enumerate() {
            assert!(
                p == NO_PARENT || (p as usize) < parents.len() && p as usize != i,
                "parent {p} of strand {i} out of range or self-referential"
            );
        }
        self.parents = Some(parents);
        self
    }

    /// The raw lineage table, if this snapshot carries one.
    pub fn parents(&self) -> Option<&[u32]> {
        self.parents.as_deref()
    }

    /// The per-strand (English, Hebrew) ranks.
    pub fn ranks(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.eng_rank
            .iter()
            .copied()
            .zip(self.heb_rank.iter().copied())
    }

    pub fn strand_count(&self) -> usize {
        self.eng_rank.len()
    }

    /// The strand's rank in the English (left-to-right serial) order. The
    /// batch detector sorts merged race regions by this rank so the merged
    /// report is deterministic regardless of shard count or steal order.
    pub fn english_rank(&self, s: StrandId) -> u32 {
        self.eng_rank[s.index()]
    }
}

impl Reachability for FrozenReach {
    #[inline]
    fn series(&self, a: StrandId, b: StrandId) -> bool {
        a != b
            && self.eng_rank[a.index()] < self.eng_rank[b.index()]
            && self.heb_rank[a.index()] < self.heb_rank[b.index()]
    }
    #[inline]
    fn parallel(&self, a: StrandId, b: StrandId) -> bool {
        a != b
            && (self.eng_rank[a.index()] < self.eng_rank[b.index()])
                != (self.heb_rank[a.index()] < self.heb_rank[b.index()])
    }
    #[inline]
    fn left_of(&self, a: StrandId, b: StrandId) -> bool {
        a != b && self.heb_rank[b.index()] < self.heb_rank[a.index()]
    }
    #[inline]
    fn order_pair(&self, a: StrandId, b: StrandId) -> (bool, bool) {
        (
            self.eng_rank[a.index()] < self.eng_rank[b.index()],
            self.heb_rank[a.index()] < self.heb_rank[b.index()],
        )
    }
    #[inline]
    fn parent_of(&self, s: StrandId) -> Option<StrandId> {
        let p = self.parents.as_ref()?[s.index()];
        (p != NO_PARENT).then_some(StrandId(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny executor mirroring the maintenance protocol, used to drive unit
    /// tests. (The real executor lives in `stint-cilk`.)
    struct Frame {
        sync_strand: Option<StrandId>,
    }
    pub struct Toy {
        pub sp: SpOrder,
        pub cur: StrandId,
        frames: Vec<Frame>,
    }
    impl Toy {
        pub fn new() -> Self {
            let (sp, root) = SpOrder::new();
            Toy {
                sp,
                cur: root,
                frames: vec![Frame { sync_strand: None }],
            }
        }
        pub fn spawn(&mut self, f: impl FnOnce(&mut Toy)) {
            if self.frames.last().unwrap().sync_strand.is_none() {
                let j = self.sp.new_sync_strand(self.cur);
                self.frames.last_mut().unwrap().sync_strand = Some(j);
            }
            let s = self.sp.spawn(self.cur);
            self.frames.push(Frame { sync_strand: None });
            self.cur = s.child;
            f(self);
            // implicit sync at spawned function return
            self.sync();
            self.frames.pop();
            self.cur = s.continuation;
        }
        pub fn sync(&mut self) {
            if let Some(j) = self.frames.last_mut().unwrap().sync_strand.take() {
                self.cur = j;
            }
        }
    }

    #[test]
    fn spawn_makes_child_parallel_to_continuation() {
        let mut t = Toy::new();
        let mut child = None;
        t.spawn(|t| child = Some(t.cur));
        let child = child.unwrap();
        let cont = t.cur;
        assert!(t.sp.parallel(child, cont));
        assert!(t.sp.left_of(child, cont), "child is left of continuation");
        assert!(!t.sp.left_of(cont, child));
    }

    #[test]
    fn sync_serializes() {
        let mut t = Toy::new();
        let root = t.cur;
        let mut child = None;
        t.spawn(|t| child = Some(t.cur));
        t.sync();
        let after = t.cur;
        let child = child.unwrap();
        assert!(t.sp.series(root, child));
        assert!(t.sp.series(child, after));
        assert!(t.sp.series(root, after));
        assert!(!t.sp.parallel(child, after));
        // After sync, the later strand is left of the earlier (series) one.
        assert!(t.sp.left_of(after, child));
    }

    #[test]
    fn two_children_are_parallel() {
        let mut t = Toy::new();
        let (mut c1, mut c2) = (None, None);
        t.spawn(|t| c1 = Some(t.cur));
        t.spawn(|t| c2 = Some(t.cur));
        t.sync();
        let (c1, c2) = (c1.unwrap(), c2.unwrap());
        assert!(t.sp.parallel(c1, c2));
        assert!(t.sp.left_of(c1, c2), "earlier sibling is left of later");
        assert!(t.sp.series(c1, t.cur));
        assert!(t.sp.series(c2, t.cur));
    }

    #[test]
    fn nested_spawn_parallel_with_uncle_continuation() {
        // spawn { spawn {A}; B } ; C ; sync   — A,B,C pairwise parallel.
        let mut t = Toy::new();
        let (mut a, mut b) = (None, None);
        t.spawn(|t| {
            t.spawn(|t| a = Some(t.cur));
            b = Some(t.cur);
        });
        let c = t.cur;
        t.sync();
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(t.sp.parallel(a, b));
        assert!(t.sp.parallel(a, c));
        assert!(t.sp.parallel(b, c));
        assert!(t.sp.series(a, t.cur));
        assert!(t.sp.series(b, t.cur));
    }

    #[test]
    fn second_sync_block_is_serial_after_first() {
        let mut t = Toy::new();
        let (mut a, mut b) = (None, None);
        t.spawn(|t| a = Some(t.cur));
        t.sync();
        t.spawn(|t| b = Some(t.cur));
        t.sync();
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(t.sp.series(a, b), "strands of block 1 precede block 2");
        assert!(t.sp.series(a, t.cur));
        assert!(t.sp.series(b, t.cur));
    }

    #[test]
    fn implicit_sync_at_child_return() {
        // spawn { spawn {A}; (implicit sync) }; after-child-return strand is
        // the continuation — A is parallel to it; but A is serial before the
        // strand following the outer sync.
        let mut t = Toy::new();
        let mut a = None;
        t.spawn(|t| {
            t.spawn(|t| a = Some(t.cur));
            // no explicit sync: implicit at return
        });
        let cont = t.cur;
        let a = a.unwrap();
        assert!(t.sp.parallel(a, cont));
        t.sync();
        assert!(t.sp.series(a, t.cur));
    }

    #[test]
    fn sync_without_spawn_is_noop() {
        let mut t = Toy::new();
        let before = t.cur;
        t.sync();
        assert_eq!(before, t.cur);
    }

    #[test]
    fn deep_chain_series() {
        let mut t = Toy::new();
        let mut ids = vec![t.cur];
        for _ in 0..100 {
            t.spawn(|_| {});
            t.sync();
            ids.push(t.cur);
        }
        for w in ids.windows(2) {
            assert!(t.sp.series(w[0], w[1]));
        }
        assert!(t.sp.series(ids[0], *ids.last().unwrap()));
    }

    #[test]
    fn frozen_reach_answers_like_live() {
        let mut t = Toy::new();
        let mut ids = vec![t.cur];
        t.spawn(|t| {
            ids.push(t.cur);
            t.spawn(|t| ids.push(t.cur));
            ids.push(t.cur);
        });
        ids.push(t.cur);
        t.sync();
        ids.push(t.cur);
        let frozen = t.sp.freeze();
        assert_eq!(frozen.strand_count(), t.sp.strand_count());
        for &a in &ids {
            for &b in &ids {
                assert_eq!(
                    t.sp.series(a, b),
                    Reachability::series(&frozen, a, b),
                    "series({a:?},{b:?})"
                );
                assert_eq!(
                    t.sp.parallel(a, b),
                    Reachability::parallel(&frozen, a, b),
                    "parallel({a:?},{b:?})"
                );
                assert_eq!(
                    t.sp.left_of(a, b),
                    Reachability::left_of(&frozen, a, b),
                    "left_of({a:?},{b:?})"
                );
            }
        }
        // Roundtrip through exported ranks.
        let (e, h): (Vec<u32>, Vec<u32>) = frozen.ranks().unzip();
        let back = FrozenReach::from_ranks(e, h);
        assert_eq!(back, frozen);
    }

    #[test]
    fn order_pair_matches_verdicts_and_lineage_reaches_root() {
        let mut t = Toy::new();
        let root = t.cur;
        let (mut a, mut b) = (None, None);
        t.spawn(|t| {
            t.spawn(|t| a = Some(t.cur));
            b = Some(t.cur);
        });
        t.sync();
        let (a, b) = (a.unwrap(), b.unwrap());
        let frozen = t.sp.freeze();
        for &(x, y) in &[(root, a), (a, b), (b, t.cur), (a, t.cur)] {
            for r in [&t.sp as &dyn Reachability, &frozen as &dyn Reachability] {
                let (e, h) = r.order_pair(x, y);
                assert_eq!(r.series(x, y), e && h, "series({x:?},{y:?})");
                assert_eq!(r.parallel(x, y), e != h, "parallel({x:?},{y:?})");
                // The pair is antisymmetric.
                let (re, rh) = r.order_pair(y, x);
                assert_eq!((re, rh), (!e, !h));
            }
            assert_eq!(
                (&t.sp as &dyn Reachability).order_pair(x, x),
                (false, false)
            );
        }
        // Every strand's lineage chain terminates at the root.
        for s in 0..frozen.strand_count() as u32 {
            let mut cur = StrandId(s);
            let mut hops = 0;
            while let Some(p) = frozen.parent_of(cur) {
                cur = p;
                hops += 1;
                assert!(hops <= frozen.strand_count(), "lineage cycle at {s}");
            }
            assert_eq!(cur, root);
            assert_eq!(t.sp.parent_of(StrandId(s)), frozen.parent_of(StrandId(s)));
        }
        // Lineage survives a rank round-trip only when re-attached; equality
        // ignores it (it is context, not substrate).
        let (e, h): (Vec<u32>, Vec<u32>) = frozen.ranks().unzip();
        let bare = FrozenReach::from_ranks(e, h);
        assert_eq!(bare, frozen);
        assert!(bare.parents().is_none());
        let back = bare.with_parents(frozen.parents().unwrap().to_vec());
        assert_eq!(back.parents(), frozen.parents());
    }

    #[test]
    fn wide_fanout_pairwise_parallel() {
        let mut t = Toy::new();
        let mut kids = Vec::new();
        for _ in 0..50 {
            t.spawn(|t| kids.push(t.cur));
        }
        t.sync();
        for i in 0..kids.len() {
            for j in (i + 1)..kids.len() {
                assert!(t.sp.parallel(kids[i], kids[j]));
                assert!(t.sp.left_of(kids[i], kids[j]));
            }
            assert!(t.sp.series(kids[i], t.cur));
        }
    }
}
