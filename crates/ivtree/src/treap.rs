//! The treap of disjoint intervals (paper Section 4, Figures 2–4).
//!
//! Nodes live in an arena indexed by `u32`; a node's priority is a hash of
//! its slot, and the tree is a BST on interval start and a max-heap on
//! priority. The query is recursive. Both inserts probe, act and repair (`Treap::insert_from`): a
//! read-only descent to the first stored interval the run overlaps, the
//! recursive case analysis rooted there, and links re-stored along the
//! recorded path only as far as a subtree root changed (a fresh leaf is
//! rotated up while its priority beats its parent's; a node whose children
//! changed in the split cases is sifted down) — none when a stored reader
//! stays or is only replaced, or a write meets its own bounds. Removals
//! splice nodes out along one spine, which cannot violate the heap order.
//!
//! When an existing node is trimmed or has its payload replaced in place
//! (write case D, the "middle piece" of the split cases), it keeps its slot
//! and so its priority: priorities are i.i.d. uniform and independent of the
//! keys, so the tree's shape distribution is preserved.
//!
//! A node stores its length in 32 bits. A run of `WIDE` words or more (one
//! at 2^31, 8 GiB of 4-byte words; a large `free` is one) is a *wide* node:
//! its `len` bits index a side table that holds its end.

use crate::{Interval, IntervalStore, OpStats};

const NIL: u32 = u32::MAX;
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
/// A node's `len` at or above this marks it wide: the low bits index
/// `Treap::wide`, which holds its end.
const WIDE: u32 = 1 << 31;

/// Fewest runs worth a cut: two splits and two joins walk four root-to-leaf
/// spines, what four per-run descents cost, so a shorter batch cannot win.
const MIN_BULK_RUNS: usize = 4;

// Observability (no-ops costing one relaxed load while `stint-obs` is
// disabled). `ivtree.op_visited` buckets the nodes visited per top-level
// operation — a search-depth proxy; `ivtree.depth` records the exact height
// once per tree when its stats are collected at the end of a run.
static OBS_INSERTS: stint_obs::Counter = stint_obs::Counter::new("ivtree.inserts");
static OBS_QUERIES: stint_obs::Counter = stint_obs::Counter::new("ivtree.queries");
static OBS_ROTATIONS: stint_obs::Counter = stint_obs::Counter::new("ivtree.rotations");
static OBS_NODES: stint_obs::Gauge = stint_obs::Gauge::new("ivtree.nodes");
static OBS_BYTES: stint_obs::Gauge = stint_obs::Gauge::new("ivtree.bytes");
static OBS_OP_VISITED: stint_obs::Histogram = stint_obs::Histogram::new("ivtree.op_visited");
// Fast path, counted: batches spliced through a cut, the runs in them, and
// those of them built in O(n) because the middle of the cut was empty.
static OBS_BULK_BATCHES: stint_obs::Counter = stint_obs::Counter::new("ivtree.bulk.batches");
static OBS_BULK_RUNS: stint_obs::Counter = stint_obs::Counter::new("ivtree.bulk.runs");
static OBS_BULK_BUILT: stint_obs::Counter = stint_obs::Counter::new("ivtree.bulk.built");
// Inserts that finished at the probe (stored reader kept, or same bounds:
// nothing re-linked), and every other insert, per tree side.
static OBS_READ_SETTLED: stint_obs::Counter = stint_obs::Counter::new("ivtree.read.settled");
static OBS_READ_RESTRUCTURED: stint_obs::Counter =
    stint_obs::Counter::new("ivtree.read.restructured");
static OBS_WRITE_SETTLED: stint_obs::Counter = stint_obs::Counter::new("ivtree.write.settled");
static OBS_WRITE_RESTRUCTURED: stint_obs::Counter =
    stint_obs::Counter::new("ivtree.write.restructured");
static OBS_DEPTH: stint_obs::Histogram = stint_obs::Histogram::new("ivtree.depth");

#[derive(Clone, Debug)]
struct Node<A> {
    start: u64,
    /// `end - start`, below `WIDE`; else `WIDE | i` with the end in `wide[i]`.
    len: u32,
    who: A,
    left: u32,
    right: u32,
}

// With a 4-byte accessor a node is 24 bytes with no padding (one in four
// straddles a cache line).
const _: () = assert!(std::mem::size_of::<Node<u32>>() == 24);

/// Treap-based interval store. See the crate docs for the semantics.
///
/// ```
/// use stint_ivtree::{Treap, Interval, IntervalStore};
///
/// let mut history: Treap<&str> = Treap::new();
/// history.insert_write(Interval::new(0, 30, "alice"), |_, _, _| {});
/// // Bob overwrites the middle: alice is reported as the previous writer.
/// let mut conflicts = vec![];
/// history.insert_write(Interval::new(10, 20, "bob"), |who, lo, hi| {
///     conflicts.push((who, lo, hi));
/// });
/// assert_eq!(conflicts, [("alice", 10, 20)]);
/// // Alice's interval was split around Bob's.
/// assert_eq!(history.len(), 3);
/// ```
pub struct Treap<A> {
    nodes: Vec<Node<A>>,
    free: Vec<u32>,
    root: u32,
    /// Ends of the wide nodes (see `WIDE`), and the entries free for reuse.
    /// Empty, and unallocated, until a run of `WIDE` words or more arrives.
    wide: Vec<u64>,
    wide_free: Vec<u32>,
    /// The priority stream's start: slot `t`'s priority is the `t`-th draw
    /// of a splitmix64 stream from here, or under `degenerate` the counter
    /// `seed + t + 1`.
    seed: u64,
    /// `treap-degenerate` fault: priorities increase with the slot, turning
    /// the treap into its worst-case (list-shaped) form so the degradation
    /// machinery is exercised with pathological depth.
    degenerate: bool,
    len: usize,
    /// Most intervals ever stored at once (Lemma 4.1 watermark).
    len_hw: usize,
    stats: OpStats,
    /// Total top-level insert operations (for the Lemma 4.1 bound check).
    inserts: u64,
    /// Arena slot budget: allocation past this raises
    /// [`stint_faults::DetectorError::ResourceExhausted`].
    node_cap: u32,
    /// Conservative cover of every stored interval: the union of all
    /// intervals ever inserted is `[lo_bound, hi_bound)` (trims and removals
    /// only shrink coverage, so the cover never under-estimates). An insert
    /// or query entirely outside it cannot overlap anything — the
    /// key-compare early-out keys off this.
    lo_bound: u64,
    hi_bound: u64,
    /// Heap bytes last reported to the `ivtree.bytes`/`ivtree.nodes` gauges
    /// (zero while obs is disabled — `Gauge::reconcile` no-ops).
    owned_bytes: u64,
    owned_nodes: u64,
    /// Scratch of [`Self::insert_from`]: the nodes the last insert's probe
    /// passed on its way down, top first, each with the largest `end` a run
    /// to the right of it may have and still turn there as it did: the
    /// node's `start` where it went left, `u64::MAX` (no node starts there)
    /// where it went right.
    path: Vec<(u32, u64)>,
    /// Inserts that finished at the probe (`ivtree.{read,write}.settled`).
    settled: u64,
}

impl<A: Copy> Default for Treap<A> {
    fn default() -> Self {
        Self::with_seed(0x5EED_1234_5678_9ABC)
    }
}

impl<A: Copy> Treap<A> {
    /// Create an empty treap whose priorities are drawn from a splitmix64
    /// stream seeded with `seed` (deterministic for reproducible runs).
    /// Samples the installed fault plan (if any): under `treap-degenerate`
    /// the priorities become monotone and the treap degrades to a list.
    pub fn with_seed(seed: u64) -> Self {
        let degenerate = stint_faults::is_active() && stint_faults::treap_degenerate();
        Treap {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            wide: Vec::new(),
            wide_free: Vec::new(),
            // Degenerate: the monotone counter's base; see `prio`.
            seed: if degenerate { 0 } else { seed ^ GOLDEN },
            degenerate,
            len: 0,
            len_hw: 0,
            stats: OpStats::default(),
            inserts: 0,
            node_cap: NIL,
            lo_bound: u64::MAX,
            hi_bound: 0,
            owned_bytes: 0,
            owned_nodes: 0,
            path: Vec::new(),
            settled: 0,
        }
    }

    pub fn new() -> Self {
        Self::default()
    }

    /// Total insert operations performed (Lemma 4.1: `len() <= 2*inserts+1`).
    pub fn insert_ops(&self) -> u64 {
        self.inserts
    }

    /// Most intervals ever stored at once. Lemma 4.1 bounds the watermark
    /// too: every stored interval was produced by some insert, so
    /// `len_high_water() <= 2*insert_ops() + 1` at all times.
    pub fn len_high_water(&self) -> usize {
        self.len_hw
    }

    /// Cap the node arena at `cap` slots; allocating past it raises the
    /// structured [`stint_faults::DetectorError::ResourceExhausted`] error
    /// instead of aborting, so budget exhaustion stays a clean exit-3.
    pub fn set_node_cap(&mut self, cap: usize) {
        self.node_cap = cap.min(NIL as usize) as u32;
    }

    /// Heap bytes currently owned by the arena (node slab + free list), the
    /// wide nodes' side table and the insert probe's path scratch.
    pub fn heap_bytes(&self) -> u64 {
        (self.nodes.capacity() * std::mem::size_of::<Node<A>>()
            + (self.free.capacity() + self.wide_free.capacity()) * std::mem::size_of::<u32>()
            + self.wide.capacity() * std::mem::size_of::<u64>()
            + self.path.capacity() * std::mem::size_of::<(u32, u64)>()) as u64
    }

    /// Publish the arena's live footprint to the `ivtree.*` gauges.
    /// `Gauge::reconcile` is a no-op while obs is disabled, leaving the
    /// `owned_*` shadows untouched so a mid-life enable can't underflow.
    #[inline]
    fn note_mem(&mut self) {
        let (len, bytes) = (self.len as u64, self.heap_bytes());
        OBS_NODES.reconcile(&mut self.owned_nodes, len);
        OBS_BYTES.reconcile(&mut self.owned_bytes, bytes);
    }

    /// The priority of slot `t`: the `t`-th draw of a splitmix64 stream (the
    /// upper half of its output), so an arena that reuses no slot ranks its
    /// nodes as a stream drawn once per new node would. A slot keeps its
    /// priority through trims and carves; a reused slot's is still
    /// independent of the keys.
    #[inline]
    fn prio(&self, t: u32) -> u32 {
        let i = t as u64 + 1;
        if self.degenerate {
            // Worst-case fault: each new node outranks every older one, so
            // insertion rotates it all the way to the root and the tree is a
            // list. The counter saturates (ties keep the heap order valid)
            // instead of wrapping.
            return (self.seed + i).min(u32::MAX as u64) as u32;
        }
        let mut z = self.seed.wrapping_add(i.wrapping_mul(GOLDEN));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 32) as u32
    }

    /// The end of node `t`'s interval.
    #[inline]
    fn end(&self, t: u32) -> u64 {
        let n = self.n(t);
        if n.len < WIDE {
            n.start + n.len as u64
        } else {
            self.wide_end(n.len)
        }
    }

    #[cold]
    #[inline(never)]
    fn wide_end(&self, len: u32) -> u64 {
        self.wide[(len & !WIDE) as usize]
    }

    /// Store `[start, end)` as node `t`'s bounds.
    #[inline]
    fn set(&mut self, t: u32, start: u64, end: u64) {
        let n = &mut self.nodes[t as usize];
        if n.len < WIDE && end - start < WIDE as u64 {
            (n.start, n.len) = (start, (end - start) as u32);
        } else {
            self.set_wide(t, start, end);
        }
    }

    /// [`Self::set`] where the node was wide, becomes wide, or both.
    #[cold]
    #[inline(never)]
    fn set_wide(&mut self, t: u32, start: u64, end: u64) {
        let held = self.n(t).len;
        let len = if end - start < WIDE as u64 {
            self.wide_free.push(held & !WIDE);
            (end - start) as u32
        } else if held >= WIDE {
            self.wide[(held & !WIDE) as usize] = end;
            held
        } else {
            self.wide_entry(end)
        };
        let n = self.nm(t);
        (n.start, n.len) = (start, len);
    }

    /// A side-table entry holding `end`: the `len` bits of a wide node.
    #[cold]
    #[inline(never)]
    fn wide_entry(&mut self, end: u64) -> u32 {
        let i = self.wide_free.pop().unwrap_or_else(|| {
            self.wide.push(0);
            // Each wide run spans 2^31 words of a 2^64 space: fewer than
            // 2^33 can coexist, and 2^31 would take 48 GiB of nodes.
            (self.wide.len() - 1) as u32
        });
        self.wide[i as usize] = end;
        WIDE | i
    }

    #[inline]
    fn alloc(&mut self, iv: Interval<A>) -> u32 {
        let reuse = self.free.pop();
        if reuse.is_none() && self.nodes.len() as u32 >= self.node_cap {
            self.exhausted();
        }
        let len = if iv.end - iv.start < WIDE as u64 {
            (iv.end - iv.start) as u32
        } else {
            self.wide_entry(iv.end)
        };
        let node = Node {
            start: iv.start,
            len,
            who: iv.who,
            left: NIL,
            right: NIL,
        };
        let slot = if let Some(i) = reuse {
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        // Counted only once the slot exists: `exhausted` unwinds.
        self.len += 1;
        self.len_hw = self.len_hw.max(self.len);
        self.note_mem();
        slot
    }

    /// Arena slots ran out (either the configured [`Self::set_node_cap`]
    /// budget or the u32 index space). Raise the structured resource error —
    /// the detector's panic boundary converts it into a graceful exit-3.
    #[cold]
    #[inline(never)]
    fn exhausted(&self) -> ! {
        stint_obs::event("fault.intervals_exhausted");
        stint_faults::DetectorError::ResourceExhausted {
            resource: stint_faults::Resource::Intervals,
            limit: self.node_cap as u64,
            at_word: None,
        }
        .raise()
    }

    #[inline]
    fn dealloc(&mut self, t: u32) {
        let held = self.n(t).len;
        if held >= WIDE {
            self.wide_free.push(held & !WIDE);
        }
        self.len -= 1;
        self.free.push(t);
        self.note_mem();
    }

    #[inline]
    fn n(&self, t: u32) -> &Node<A> {
        &self.nodes[t as usize]
    }
    #[inline]
    fn nm(&mut self, t: u32) -> &mut Node<A> {
        &mut self.nodes[t as usize]
    }

    /// Right rotation: left child comes up. Returns the new subtree root.
    #[inline]
    fn rotate_right(&mut self, t: u32) -> u32 {
        OBS_ROTATIONS.incr();
        let l = self.n(t).left;
        self.nm(t).left = self.n(l).right;
        self.nm(l).right = t;
        l
    }

    /// Left rotation: right child comes up. Returns the new subtree root.
    #[inline]
    fn rotate_left(&mut self, t: u32) -> u32 {
        OBS_ROTATIONS.incr();
        let r = self.n(t).right;
        self.nm(t).right = self.n(r).left;
        self.nm(r).left = t;
        r
    }

    /// Restore the heap order after `t`'s left child subtree was rebuilt by a
    /// recursive insert. The child subtree is internally heap-consistent but
    /// its nodes may outrank `t`; rotating the child up leaves `t` with a new
    /// left child that may outrank it in turn, so the fix recurses down the
    /// spine (a sift). Of two equal priorities the smaller key ranks higher
    /// (`>=` here, `>` in `fix_right`; `join` and `spine_push` agree), so the
    /// shape is a function of the (key, priority) set even when draws tie.
    #[inline]
    fn fix_left(&mut self, t: u32) -> u32 {
        let l = self.n(t).left;
        if l != NIL && self.prio(l) >= self.prio(t) {
            self.raise_left(t)
        } else {
            t
        }
    }

    /// Rotate `t`'s left child above it and sift `t` down: the child
    /// outranks it.
    #[inline]
    fn raise_left(&mut self, t: u32) -> u32 {
        let top = self.rotate_right(t);
        let fixed = self.fix_left(t);
        self.nm(top).right = fixed;
        top
    }

    /// Mirror image of [`Self::fix_left`].
    #[inline]
    fn fix_right(&mut self, t: u32) -> u32 {
        let r = self.n(t).right;
        if r != NIL && self.prio(r) > self.prio(t) {
            self.raise_right(t)
        } else {
            t
        }
    }

    /// Mirror image of [`Self::raise_left`].
    #[inline]
    fn raise_right(&mut self, t: u32) -> u32 {
        let top = self.rotate_left(t);
        let fixed = self.fix_right(t);
        self.nm(top).left = fixed;
        top
    }

    /// Link `new`, the root an insert into `t`'s left subtree returned, as
    /// `t`'s left child and restore the heap order. Only a new root can
    /// outrank `t`: an unchanged one kept its slot, hence its priority.
    #[inline]
    fn link_left(&mut self, t: u32, new: u32) -> u32 {
        if self.n(t).left == new {
            return t;
        }
        self.nm(t).left = new;
        self.fix_left(t)
    }

    /// Mirror image of [`Self::link_left`].
    #[inline]
    fn link_right(&mut self, t: u32, new: u32) -> u32 {
        if self.n(t).right == new {
            return t;
        }
        self.nm(t).right = new;
        self.fix_right(t)
    }

    /// Plain treap insertion of the unlinked node `x`, whose interval is
    /// known not to overlap anything in this subtree (the split pieces of
    /// case C, an insert that misses the cover, a re-link after an unwind).
    #[inline]
    fn insert_disjoint(&mut self, t: u32, x: u32) -> u32 {
        if t == NIL {
            return x;
        }
        self.stats.visited += 1;
        debug_assert!(self.end(x) <= self.n(t).start || self.n(x).start >= self.end(t));
        if self.n(x).start < self.n(t).start {
            let nl = self.insert_disjoint(self.n(t).left, x);
            self.link_left(t, nl)
        } else {
            let nr = self.insert_disjoint(self.n(t).right, x);
            self.link_right(t, nr)
        }
    }

    /// Give `iv` a node and insert that.
    #[inline]
    fn insert_new(&mut self, t: u32, iv: Interval<A>) -> u32 {
        let x = self.alloc(iv);
        self.insert_disjoint(t, x)
    }

    /// Case C with the new accessor recorded: `x` lies inside the interval
    /// `y` stored at `t`. Keep the middle (= `x`) here; the side remnants of
    /// `y` are re-inserted from this subtree's root, where they cannot overlap
    /// anything (each is a classic single-node treap insert).
    #[inline]
    fn carve(&mut self, t: u32, x: Interval<A>) -> u32 {
        let (ys, ye, y_who) = (self.n(t).start, self.end(t), self.n(t).who);
        self.set(t, x.start, x.end);
        self.nm(t).who = x.who;
        let mut t = t;
        if ys < x.start {
            t = self.insert_new(t, Interval::new(ys, x.start, y_who));
        }
        if x.end < ye {
            t = self.insert_new(t, Interval::new(x.end, ye, y_who));
        }
        t
    }

    /// Report every interval in the subtree as fully overlapped and free the
    /// whole subtree (used when REMOVEOVERLAP discards a subtree wholesale).
    fn report_and_free_all(&mut self, t: u32, cb: &mut impl FnMut(A, u64, u64)) {
        if t == NIL {
            return;
        }
        self.stats.visited += 1;
        self.stats.overlaps += 1;
        let (l, r) = (self.n(t).left, self.n(t).right);
        let (s, e, who) = (self.n(t).start, self.end(t), self.n(t).who);
        cb(who, s, e);
        self.report_and_free_all(l, cb);
        self.report_and_free_all(r, cb);
        self.dealloc(t);
    }

    /// REMOVEOVERLAPLEFT (paper Figure 3): called on the left subtree of a
    /// node that `x` replaced; the invariant is that `x` sits at an ancestor
    /// to the right and extends at least as far right as anything here
    /// (`x.end >= z.end` for all subtree nodes `z`).
    fn remove_overlap_left(
        &mut self,
        t: u32,
        x_start: u64,
        cb: &mut impl FnMut(A, u64, u64),
    ) -> u32 {
        if t == NIL {
            return NIL;
        }
        self.stats.visited += 1;
        let (zs, ze) = (self.n(t).start, self.end(t));
        if ze <= x_start {
            // Case A: no overlap; only the right subtree can overlap.
            let nr = self.remove_overlap_left(self.n(t).right, x_start, cb);
            self.nm(t).right = nr;
            t
        } else if zs < x_start {
            // Case B: partial overlap; trim z, and the entire right subtree
            // overlaps x and is removed.
            self.stats.overlaps += 1;
            let who = self.n(t).who;
            cb(who, x_start, ze);
            self.set(t, zs, x_start);
            let r = self.n(t).right;
            self.report_and_free_all(r, cb);
            self.nm(t).right = NIL;
            t
        } else {
            // Case C: x fully covers z; remove z and its right subtree,
            // splice in the left subtree and keep looking there.
            self.stats.overlaps += 1;
            let who = self.n(t).who;
            cb(who, zs, ze);
            let (l, r) = (self.n(t).left, self.n(t).right);
            self.report_and_free_all(r, cb);
            self.dealloc(t);
            self.remove_overlap_left(l, x_start, cb)
        }
    }

    /// Mirror image of [`Self::remove_overlap_left`] for the right subtree:
    /// `x` sits at an ancestor to the left and `x.start <= z.start` holds for
    /// all subtree nodes `z`.
    fn remove_overlap_right(
        &mut self,
        t: u32,
        x_end: u64,
        cb: &mut impl FnMut(A, u64, u64),
    ) -> u32 {
        if t == NIL {
            return NIL;
        }
        self.stats.visited += 1;
        let (zs, ze) = (self.n(t).start, self.end(t));
        if zs >= x_end {
            let nl = self.remove_overlap_right(self.n(t).left, x_end, cb);
            self.nm(t).left = nl;
            t
        } else if ze > x_end {
            self.stats.overlaps += 1;
            let who = self.n(t).who;
            cb(who, zs, x_end);
            self.set(t, x_end, ze);
            let l = self.n(t).left;
            self.report_and_free_all(l, cb);
            self.nm(t).left = NIL;
            t
        } else {
            self.stats.overlaps += 1;
            let who = self.n(t).who;
            cb(who, zs, ze);
            let (l, r) = (self.n(t).left, self.n(t).right);
            self.report_and_free_all(l, cb);
            self.dealloc(t);
            self.remove_overlap_right(r, x_end, cb)
        }
    }

    /// INSERTWRITEINTERVAL (paper Figure 2). A run enters where
    /// [`Self::insert_from`]'s probe stopped; the descent arms carry what is
    /// left of it past a case-B trim.
    fn iw(&mut self, t: u32, x: Interval<A>, cb: &mut impl FnMut(A, u64, u64)) -> u32 {
        if t == NIL {
            return self.alloc(x);
        }
        self.stats.visited += 1;
        let (ys, ye) = (self.n(t).start, self.end(t));
        if x.end <= ys {
            // Case A: no overlap, x entirely to the left.
            let nl = self.iw(self.n(t).left, x, cb);
            return self.link_left(t, nl);
        }
        if x.start >= ye {
            // Case A: no overlap, x entirely to the right.
            let nr = self.iw(self.n(t).right, x, cb);
            return self.link_right(t, nr);
        }
        // Overlap: report the conflicting region with the old accessor.
        self.stats.overlaps += 1;
        let y_who = self.n(t).who;
        cb(y_who, x.start.max(ys), x.end.min(ye));
        if x.start <= ys && ye <= x.end {
            // Case D: x fully covers y. Flush the remaining overlaps out of
            // each subtree x reaches into (past an edge x shares with y,
            // nothing can overlap it), then replace y's payload in place
            // (keeping its priority): the live nodes stay disjoint even if
            // `cb` unwinds.
            if x.start < ys {
                let nl = self.remove_overlap_left(self.n(t).left, x.start, cb);
                self.nm(t).left = nl;
            }
            if ye < x.end {
                let nr = self.remove_overlap_right(self.n(t).right, x.end, cb);
                self.nm(t).right = nr;
            }
            self.set(t, x.start, x.end);
            self.nm(t).who = x.who;
            t
        } else if ys <= x.start && x.end <= ye {
            // Case C: y fully covers x (strictly on at least one side).
            self.carve(t, x)
        } else if x.start > ys {
            // Case B: partial overlap, x to the right: trim y and recurse.
            self.set(t, ys, x.start);
            let nr = self.iw(self.n(t).right, x, cb);
            self.link_right(t, nr)
        } else {
            // Case B mirrored: partial overlap, x to the left.
            self.set(t, x.end, ye);
            let nl = self.iw(self.n(t).left, x, cb);
            self.link_left(t, nl)
        }
    }

    /// INSERTREADINTERVAL (paper §4.2, Figure 4). `keep_new(old)` is true
    /// when the new reader is left of the stored reader `old`. A run enters
    /// where [`Self::insert_from`]'s probe stopped; the two descent arms carry
    /// the flanks and trimmed pieces the cases re-insert inside that subtree.
    fn ir(&mut self, t: u32, x: Interval<A>, keep_new: &mut impl FnMut(A) -> bool) -> u32 {
        if t == NIL {
            return self.alloc(x);
        }
        self.stats.visited += 1;
        let (ys, ye) = (self.n(t).start, self.end(t));
        if x.end <= ys {
            let nl = self.ir(self.n(t).left, x, keep_new);
            return self.link_left(t, nl);
        }
        if x.start >= ye {
            let nr = self.ir(self.n(t).right, x, keep_new);
            return self.link_right(t, nr);
        }
        self.stats.overlaps += 1;
        let y_who = self.n(t).who;
        if x.start <= ys && ye <= x.end {
            // Case D: x fully covers y. The middle piece keeps y's bounds and
            // gets whichever accessor is leftmost; the flanks of x are
            // re-inserted from this subtree's root (they may split further —
            // Lemma 4.1's amortization covers this).
            if keep_new(y_who) {
                self.nm(t).who = x.who;
            }
            let mut t = t;
            if x.start < ys {
                t = self.ir(t, Interval::new(x.start, ys, x.who), keep_new);
            }
            if ye < x.end {
                t = self.ir(t, Interval::new(ye, x.end, x.who), keep_new);
            }
            t
        } else if ys <= x.start && x.end <= ye {
            // Case C: y fully covers x.
            if keep_new(y_who) {
                self.carve(t, x)
            } else {
                // Old reader stays leftmost everywhere; x contributes nothing.
                t
            }
        } else if x.start > ys {
            // Partial overlap, x to the right (x.end > ye).
            let nr = if keep_new(y_who) {
                self.set(t, ys, x.start);
                self.ir(self.n(t).right, x, keep_new)
            } else {
                let trimmed = Interval::new(ye, x.end, x.who);
                self.ir(self.n(t).right, trimmed, keep_new)
            };
            self.link_right(t, nr)
        } else {
            // Partial overlap, x to the left (x.start < ys, x.end < ye).
            let nl = if keep_new(y_who) {
                self.set(t, x.end, ye);
                self.ir(self.n(t).left, x, keep_new)
            } else {
                let trimmed = Interval::new(x.start, ys, x.who);
                self.ir(self.n(t).left, trimmed, keep_new)
            };
            self.link_left(t, nl)
        }
    }

    /// One insert below `top`: probe, act, repair (DESIGN.md §3, bulk
    /// splice). The probe descends read-only to the first stored interval
    /// overlapping `x`, or to the empty slot, starting from what `path` holds
    /// of the last probe: a run to the right of the last one (the caller
    /// clears `path` otherwise) turns where that did down to the top-most
    /// node the last run passed on the left and this one does not. The act,
    /// `act(self, stop)`, is the case analysis ([`Self::iw`] or [`Self::ir`])
    /// rooted where the probe stopped, which allocates at an empty slot. The
    /// repair links and sifts its result up `path` only while a subtree root
    /// changed — not at all when a stored reader stays or only `who` is
    /// overwritten — and leaves `path` a chain down from `top`. Returns the
    /// root that replaces `top`.
    fn insert_from(
        &mut self,
        top: u32,
        x: Interval<A>,
        act: impl FnOnce(&mut Self, u32) -> u32,
    ) -> u32 {
        debug_assert!(self.path.first().is_none_or(|e| e.0 == top));
        // Where the two descents part; if nowhere, look at the last node again.
        let parts = self.path.iter().position(|e| x.end > e.1);
        let at = parts.unwrap_or(self.path.len().saturating_sub(1));
        let mut t = self.path.get(at).map_or(top, |e| e.0);
        self.path.truncate(at);
        while t != NIL {
            let n = &self.nodes[t as usize];
            let (next, same_turn_to) = if x.end <= n.start {
                (n.left, n.start)
            } else if x.start >= self.end(t) {
                (n.right, u64::MAX)
            } else {
                break;
            };
            self.path.push((t, same_turn_to));
            t = next;
        }
        self.stats.visited += (self.path.len() - at) as u64;
        let covered = t != NIL && self.n(t).start <= x.start && x.end <= self.end(t);
        let len = self.len;
        let mut new = act(self, t);
        // An interval covering the run either settles it or is carved, and a
        // carve allocates; a write settles only on its own bounds.
        self.settled += (covered && self.len == len) as u64;
        // Linked under each parent up the path, `new` either rises above it
        // or stops there, so its priority is computed once.
        let mut old = t;
        let rank = if new != old { self.prio(new) } else { 0 };
        while new != old {
            let Some((p, same_turn_to)) = self.path.pop() else {
                return new;
            };
            old = p;
            new = if same_turn_to != u64::MAX {
                self.nm(p).left = new;
                if rank >= self.prio(p) {
                    self.raise_left(p)
                } else {
                    p
                }
            } else {
                self.nm(p).right = new;
                if rank > self.prio(p) {
                    self.raise_right(p)
                } else {
                    p
                }
            };
        }
        top
    }

    /// Read-only overlap walk (paper §4.3).
    fn qo(&mut self, t: u32, lo: u64, hi: u64, f: &mut impl FnMut(A, u64, u64)) {
        if t == NIL {
            return;
        }
        self.stats.visited += 1;
        let (ys, ye, who) = (self.n(t).start, self.end(t), self.n(t).who);
        if hi <= ys {
            self.qo(self.n(t).left, lo, hi, f);
        } else if lo >= ye {
            self.qo(self.n(t).right, lo, hi, f);
        } else {
            self.stats.overlaps += 1;
            f(who, lo.max(ys), hi.min(ye));
            if lo < ys {
                self.qo(self.n(t).left, lo, hi, f);
            }
            if hi > ye {
                self.qo(self.n(t).right, lo, hi, f);
            }
        }
    }

    fn collect(&self, t: u32, out: &mut Vec<Interval<A>>) {
        if t == NIL {
            return;
        }
        self.collect(self.n(t).left, out);
        out.push(Interval::new(self.n(t).start, self.end(t), self.n(t).who));
        self.collect(self.n(t).right, out);
    }

    /// Check the BST, heap and non-overlap invariants (tests only — O(n)).
    pub fn check_invariants(&self) {
        fn walk<A: Copy>(
            tr: &Treap<A>,
            t: u32,
            min_prio: Option<u32>,
            prev_end: &mut u64,
            count: &mut usize,
            wide: &mut Vec<u32>,
        ) {
            if t == NIL {
                return;
            }
            *count += 1;
            let (n, end, prio) = (tr.n(t), tr.end(t), tr.prio(t));
            assert!(n.start < end, "empty interval stored");
            if n.len >= WIDE {
                assert!(end - n.start >= WIDE as u64, "narrow run stored wide");
                wide.push(n.len & !WIDE);
            }
            if let Some(p) = min_prio {
                assert!(prio <= p, "heap order violated");
            }
            walk(tr, n.left, Some(prio), prev_end, count, wide);
            assert!(
                n.start >= *prev_end,
                "intervals overlap or are out of order: start {} < prev end {}",
                n.start,
                *prev_end
            );
            *prev_end = end;
            walk(tr, n.right, Some(prio), prev_end, count, wide);
        }
        let mut prev_end = 0u64;
        let mut count = 0usize;
        let mut wide = self.wide_free.clone();
        walk(self, self.root, None, &mut prev_end, &mut count, &mut wide);
        assert_eq!(count, self.len, "len out of sync with tree");
        wide.sort_unstable();
        assert!(
            wide.iter().copied().eq(0..self.wide.len() as u32),
            "side table out of sync: live and free entries {wide:?} of {}",
            self.wide.len()
        );
        // Lemma 4.1: at most 2m+1 intervals after m inserts.
        assert!(
            self.len as u64 <= 2 * self.inserts + 1,
            "Lemma 4.1 bound violated: {} intervals after {} inserts",
            self.len,
            self.inserts
        );
    }

    /// Record that `[start, end)` was inserted, growing the conservative
    /// cover (see the `lo_bound`/`hi_bound` fields).
    #[inline]
    fn note_extent(&mut self, start: u64, end: u64) {
        self.lo_bound = self.lo_bound.min(start);
        self.hi_bound = self.hi_bound.max(end);
    }

    /// `[lo, hi)` cannot overlap any stored interval: one key compare
    /// against the conservative cover instead of a root-to-leaf walk.
    #[inline]
    fn misses_cover(&self, lo: u64, hi: u64) -> bool {
        self.root == NIL || hi <= self.lo_bound || lo >= self.hi_bound
    }

    /// One step of the O(n) rightmost-spine Cartesian construction: `t`, whose
    /// key follows every key on `spine`, displaces the spine suffix it
    /// outranks as its left child. `spine[0]` is the root of what was built.
    fn spine_push(&mut self, spine: &mut Vec<u32>, t: u32) {
        self.stats.visited += 1;
        let (mut displaced, rank) = (NIL, self.prio(t));
        while let Some(&top) = spine.last() {
            if self.prio(top) >= rank {
                break;
            }
            displaced = top;
            spine.pop();
        }
        self.nm(t).left = displaced;
        if let Some(&top) = spine.last() {
            self.nm(top).right = t;
        }
        spine.push(t);
    }

    /// Split `t` into the nodes before `key` and the rest. A node is before
    /// `key` when its `end <= key` (`by_end`) or its `start < key`; stored
    /// intervals are disjoint, hence sorted by start and by end alike, so
    /// either test is monotone in tree order and the cut is a BST cut.
    fn split(&mut self, t: u32, key: u64, by_end: bool) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        self.stats.visited += 1;
        let (l, r) = (self.n(t).left, self.n(t).right);
        if (by_end && self.end(t) <= key) || (!by_end && self.n(t).start < key) {
            let (before, rest) = self.split(r, key, by_end);
            self.nm(t).right = before;
            (t, rest)
        } else {
            let (before, rest) = self.split(l, key, by_end);
            self.nm(t).left = rest;
            (before, t)
        }
    }

    /// Re-link every live arena node into a valid treap, one plain insert
    /// each: the recovery for an unwind out of the case analysis (a callback,
    /// or `alloc` on a full arena), which can leave links to freed or
    /// rotated-away nodes. The slots off the free list hold pairwise-disjoint
    /// intervals at every point that can unwind, so they determine the tree.
    #[cold]
    fn relink_live(&mut self) {
        let mut live = vec![true; self.nodes.len()];
        for &f in &self.free {
            live[f as usize] = false;
        }
        (self.root, self.len) = (NIL, 0);
        for x in (0..live.len() as u32).filter(|&x| live[x as usize]) {
            (self.nm(x).left, self.nm(x).right) = (NIL, NIL);
            self.root = self.insert_disjoint(self.root, x);
            self.len += 1;
        }
        self.note_mem();
    }

    /// Count one finished insert and bucket the nodes visited since `*since`.
    /// Returns whether obs is enabled.
    #[inline]
    fn observe_insert(&self, since: &mut u64) -> bool {
        let enabled = stint_obs::is_enabled();
        if enabled {
            OBS_INSERTS.incr();
            OBS_OP_VISITED.observe(self.stats.visited - *since);
            *since = self.stats.visited;
        }
        enabled
    }

    /// Count `runs` finished inserts (reads if `read`), those settled since
    /// `settled` as such.
    fn observe_settled(&self, read: bool, runs: u64, settled: u64) {
        let (fast, slow) = if read {
            (&OBS_READ_SETTLED, &OBS_READ_RESTRUCTURED)
        } else {
            (&OBS_WRITE_SETTLED, &OBS_WRITE_RESTRUCTURED)
        };
        let n = self.settled - settled;
        fast.add(n);
        slow.add(runs - n);
    }

    /// One top-level insert of `x`, a read if `read`; `one(self, root)` is
    /// its case analysis.
    #[inline]
    fn insert_one(&mut self, x: Interval<A>, read: bool, one: impl FnOnce(&mut Self, u32) -> u32) {
        debug_assert!(x.start < x.end);
        self.stats.ops += 1;
        self.inserts += 1;
        self.path.clear();
        let (mut seen, settled) = (self.stats.visited, self.settled);
        self.root = if self.misses_cover(x.start, x.end) {
            // Key-compare early-out: nothing stored can overlap `x`, so it
            // goes in as a plain disjoint insert — the tree the case analysis
            // would build (same position, same slot), unanalysed.
            self.insert_new(self.root, x)
        } else {
            one(self, self.root)
        };
        self.note_extent(x.start, x.end);
        if self.observe_insert(&mut seen) {
            self.observe_settled(read, 1, settled);
        }
    }

    /// Record a strand's sorted disjoint `runs` (reads if `read`) as one
    /// splice: cut the tree into `L | M | R` around the batch's span, run the
    /// batch against `M` alone — `one(self, root, x)` is the per-run case
    /// analysis; an empty `M` overlaps nothing and the batch is built in
    /// O(n) — and join the three back. Same slots in the same order on the
    /// same keys: the tree is the one the per-run path builds (DESIGN.md
    /// §3, bulk splice). Returns false, having done nothing, for a batch too short or
    /// not sorted.
    fn splice(
        &mut self,
        who: A,
        runs: &[(u64, u64)],
        read: bool,
        mut one: impl FnMut(&mut Self, u32, Interval<A>) -> u32,
    ) -> bool {
        // Sorted, disjoint, no empty run: what a coalescing shadow extracts.
        let sorted = runs.iter().all(|r| r.0 < r.1) && runs.windows(2).all(|w| w[0].1 <= w[1].0);
        if runs.len() < MIN_BULK_RUNS || !sorted {
            return false;
        }
        let (first_lo, last_hi) = (runs[0].0, runs[runs.len() - 1].1);
        let n = runs.len() as u64;
        self.stats.ops += n;
        self.inserts += n;
        self.note_extent(first_lo, last_hi);
        // The first run's observation carries the two splits.
        let (mut seen, settled) = (self.stats.visited, self.settled);
        let (l, rest) = self.split(self.root, first_lo, true);
        let (m, r) = self.split(rest, last_hi, false);
        let build = m == NIL;
        // The cut is open until the joins below: an unwind out of `one` or
        // `alloc` must not leave `L` and `R` detached.
        let open_cut = RelinkOnUnwind(self);
        let (t, mut m, mut spine) = (&mut *open_cut.0, m, Vec::new());
        t.path.clear();
        for &(lo, hi) in runs {
            let x = Interval::new(lo, hi, who);
            m = if build {
                let node = t.alloc(x);
                t.spine_push(&mut spine, node);
                spine[0]
            } else {
                one(t, m, x)
            };
            t.observe_insert(&mut seen);
        }
        std::mem::forget(open_cut);
        let lm = self.join(l, m);
        self.root = self.join(lm, r);
        if stint_obs::is_enabled() {
            OBS_BULK_BATCHES.incr();
            OBS_BULK_RUNS.add(n);
            OBS_BULK_BUILT.add(if build { n } else { 0 });
            self.observe_settled(read, n, settled);
        }
        true
    }

    /// Join two treaps where every key in `a` precedes every key in `b`
    /// (standard treap join along the touching spines).
    fn join(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        self.stats.visited += 1;
        if self.prio(a) >= self.prio(b) {
            let r = self.join(self.n(a).right, b);
            self.nm(a).right = r;
            a
        } else {
            let l = self.join(a, self.n(b).left);
            self.nm(b).left = l;
            b
        }
    }

    /// Height of the tree (tests/benches; O(n)).
    pub fn height(&self) -> usize {
        fn h<A>(nodes: &[Node<A>], t: u32) -> usize {
            if t == NIL {
                0
            } else {
                1 + h(nodes, nodes[t as usize].left).max(h(nodes, nodes[t as usize].right))
            }
        }
        h(&self.nodes, self.root)
    }
}

impl<A> Drop for Treap<A> {
    fn drop(&mut self) {
        // Return the arena's footprint to the gauges (no-op while disabled).
        OBS_NODES.reconcile(&mut self.owned_nodes, 0);
        OBS_BYTES.reconcile(&mut self.owned_bytes, 0);
    }
}

/// Held while [`Treap::splice`] has the tree cut open and forgotten once it
/// is whole again, so this runs only when the batch unwinds.
struct RelinkOnUnwind<'a, A: Copy>(&'a mut Treap<A>);

impl<A: Copy> Drop for RelinkOnUnwind<'_, A> {
    fn drop(&mut self) {
        self.0.relink_live();
    }
}

impl<A: Copy> IntervalStore<A> for Treap<A> {
    fn insert_write(&mut self, x: Interval<A>, mut conflict: impl FnMut(A, u64, u64)) {
        self.insert_one(x, false, |t, root| {
            t.insert_from(root, x, |t, s| t.iw(s, x, &mut conflict))
        });
    }

    fn insert_read(&mut self, x: Interval<A>, mut is_new_left_of: impl FnMut(A) -> bool) {
        self.insert_one(x, true, |t, root| {
            t.insert_from(root, x, |t, s| t.ir(s, x, &mut is_new_left_of))
        });
    }

    fn query_overlaps(&mut self, lo: u64, hi: u64, mut f: impl FnMut(A, u64, u64)) {
        self.stats.ops += 1;
        let visited_before = self.stats.visited;
        // Query miss early-out: zero nodes visited.
        if !self.misses_cover(lo, hi) {
            self.qo(self.root, lo, hi, &mut f);
        }
        if stint_obs::is_enabled() {
            OBS_QUERIES.incr();
            OBS_OP_VISITED.observe(self.stats.visited - visited_before);
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn to_vec(&self) -> Vec<Interval<A>> {
        let mut v = Vec::with_capacity(self.len);
        self.collect(self.root, &mut v);
        v
    }

    fn insert_writes_for(
        &mut self,
        who: A,
        runs: &[(u64, u64)],
        mut conflict: impl FnMut(A, u64, u64),
    ) {
        if !self.splice(who, runs, false, |t, m, x| {
            t.insert_from(m, x, |t, s| t.iw(s, x, &mut conflict))
        }) {
            for &(lo, hi) in runs {
                self.insert_write(Interval::new(lo, hi, who), &mut conflict);
            }
        }
    }

    fn insert_reads_for(
        &mut self,
        who: A,
        runs: &[(u64, u64)],
        mut is_new_left_of: impl FnMut(A) -> bool,
    ) {
        if !self.splice(who, runs, true, |t, m, x| {
            t.insert_from(m, x, |t, s| t.ir(s, x, &mut is_new_left_of))
        }) {
            for &(lo, hi) in runs {
                self.insert_read(Interval::new(lo, hi, who), &mut is_new_left_of);
            }
        }
    }

    fn stats(&self) -> OpStats {
        // Stats are collected once per tree at the end of a run — the one
        // point where the O(n) exact height is affordable.
        if stint_obs::is_enabled() && self.len > 0 {
            OBS_DEPTH.observe(self.height() as u64);
        }
        let mut s = self.stats;
        s.inserts = self.inserts;
        s.len_hw = self.len_hw as u64;
        s.bytes = self.heap_bytes();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u64, e: u64, who: u32) -> Interval<u32> {
        Interval::new(s, e, who)
    }

    fn contents(t: &Treap<u32>) -> Vec<(u64, u64, u32)> {
        t.to_vec().iter().map(|i| (i.start, i.end, i.who)).collect()
    }

    #[test]
    fn degenerate_priorities_keep_results_correct() {
        // Under the `treap-degenerate` fault the tree is list-shaped but must
        // return exactly the results of a healthy treap.
        let ops: Vec<(u64, u64, u32)> = (0..200)
            .map(|i| {
                let s = (i * 37) % 500;
                (s, s + 1 + (i * 13) % 40, i as u32)
            })
            .collect();
        let run = |t: &mut Treap<u32>| {
            let mut hits = Vec::new();
            for &(s, e, w) in &ops {
                t.insert_write(iv(s, e, w), |who, lo, hi| hits.push((who, lo, hi)));
            }
            t.check_invariants();
            // Conflict callback *order* follows tree shape; the detector
            // consumes conflicts as a set, so compare shape-independently.
            hits.sort_unstable();
            (contents(t), hits)
        };
        let healthy = run(&mut Treap::new());
        // The fault's priorities, set directly: installing the process-wide
        // plan would reach treaps that other tests build meanwhile (the
        // chaos suite checks that the plan is sampled at construction).
        let mut t = Treap::new();
        (t.degenerate, t.seed) = (true, 0);
        assert_eq!(healthy, run(&mut t));
    }

    #[test]
    fn write_disjoint_inserts() {
        let mut t = Treap::new();
        for (s, e, w) in [(10, 20, 1), (0, 5, 2), (30, 40, 3), (25, 28, 4)] {
            t.insert_write(iv(s, e, w), |_, _, _| panic!("no overlap expected"));
            t.check_invariants();
        }
        assert_eq!(
            contents(&t),
            vec![(0, 5, 2), (10, 20, 1), (25, 28, 4), (30, 40, 3)]
        );
    }

    #[test]
    fn write_case_b_right_trims_old() {
        let mut t = Treap::new();
        t.insert_write(iv(0, 10, 1), |_, _, _| {});
        let mut hits = Vec::new();
        t.insert_write(iv(5, 15, 2), |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 5, 10)]);
        assert_eq!(contents(&t), vec![(0, 5, 1), (5, 15, 2)]);
        t.check_invariants();
    }

    #[test]
    fn write_case_b_left_trims_old() {
        let mut t = Treap::new();
        t.insert_write(iv(10, 20, 1), |_, _, _| {});
        let mut hits = Vec::new();
        t.insert_write(iv(5, 15, 2), |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 10, 15)]);
        assert_eq!(contents(&t), vec![(5, 15, 2), (15, 20, 1)]);
        t.check_invariants();
    }

    #[test]
    fn write_case_c_splits_old_into_three() {
        let mut t = Treap::new();
        t.insert_write(iv(0, 30, 1), |_, _, _| {});
        let mut hits = Vec::new();
        t.insert_write(iv(10, 20, 2), |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 10, 20)]);
        assert_eq!(contents(&t), vec![(0, 10, 1), (10, 20, 2), (20, 30, 1)]);
        t.check_invariants();
    }

    #[test]
    fn write_case_c_exact_prefix_and_suffix() {
        let mut t = Treap::new();
        t.insert_write(iv(0, 30, 1), |_, _, _| {});
        t.insert_write(iv(0, 10, 2), |_, _, _| {}); // prefix: only right remnant
        t.check_invariants();
        assert_eq!(contents(&t), vec![(0, 10, 2), (10, 30, 1)]);
        t.insert_write(iv(20, 30, 3), |_, _, _| {}); // suffix of the remnant
        t.check_invariants();
        assert_eq!(contents(&t), vec![(0, 10, 2), (10, 20, 1), (20, 30, 3)]);
    }

    #[test]
    fn write_case_d_replaces_and_sweeps_subtrees() {
        let mut t = Treap::new();
        for (s, e, w) in [(0, 2, 1), (4, 6, 2), (8, 10, 3), (12, 14, 4), (16, 18, 5)] {
            t.insert_write(iv(s, e, w), |_, _, _| {});
        }
        let mut hits = Vec::new();
        t.insert_write(iv(3, 15, 9), |w, lo, hi| hits.push((w, lo, hi)));
        hits.sort_unstable();
        assert_eq!(hits, vec![(2, 4, 6), (3, 8, 10), (4, 12, 14)]);
        assert_eq!(contents(&t), vec![(0, 2, 1), (3, 15, 9), (16, 18, 5)]);
        t.check_invariants();
    }

    #[test]
    fn write_case_d_with_partial_edges() {
        let mut t = Treap::new();
        for (s, e, w) in [(0, 5, 1), (6, 8, 2), (9, 12, 3)] {
            t.insert_write(iv(s, e, w), |_, _, _| {});
        }
        // Covers (6,8) fully, clips (0,5) and (9,12) partially.
        let mut hits = Vec::new();
        t.insert_write(iv(3, 10, 7), |w, lo, hi| hits.push((w, lo, hi)));
        hits.sort_unstable();
        assert_eq!(hits, vec![(1, 3, 5), (2, 6, 8), (3, 9, 10)]);
        assert_eq!(contents(&t), vec![(0, 3, 1), (3, 10, 7), (10, 12, 3)]);
        t.check_invariants();
    }

    #[test]
    fn write_exact_match_replaces() {
        let mut t = Treap::new();
        t.insert_write(iv(5, 10, 1), |_, _, _| {});
        let mut hits = Vec::new();
        t.insert_write(iv(5, 10, 2), |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 5, 10)]);
        assert_eq!(contents(&t), vec![(5, 10, 2)]);
        t.check_invariants();
    }

    #[test]
    fn paper_read_example() {
        // From Section 4: reads [8,16,a],[24,32,b],[40,52,c],[52,60,d];
        // new read [12,56,e] with e left of a and c, but not of b and d.
        let (a, b, c, d, e) = (1u32, 2, 3, 4, 5);
        let mut t = Treap::new();
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
    fn read_case_c_old_wins_absorbs_new() {
        let mut t = Treap::new();
        t.insert_read(iv(0, 100, 1), |_| true);
        t.insert_read(iv(20, 30, 2), |_| false); // old stays leftmost
        assert_eq!(contents(&t), vec![(0, 100, 1)]);
        t.check_invariants();
    }

    #[test]
    fn read_case_c_new_wins_splits_old() {
        let mut t = Treap::new();
        t.insert_read(iv(0, 100, 1), |_| true);
        t.insert_read(iv(20, 30, 2), |_| true);
        assert_eq!(contents(&t), vec![(0, 20, 1), (20, 30, 2), (30, 100, 1)]);
        t.check_invariants();
    }

    #[test]
    fn read_case_d_gap_filling_lemma41_example() {
        // Lemma 4.1's example: [1,2,a],[3,4,b],[5,6,c]; insert [0,7,d] where
        // a,b,c are all left of d — d only fills the gaps.
        let mut t = Treap::new();
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
    fn read_case_d_new_wins_everywhere() {
        let mut t = Treap::new();
        for (s, e, w) in [(1, 2, 1), (3, 4, 2), (5, 6, 3)] {
            t.insert_read(iv(s, e, w), |_| true);
        }
        t.insert_read(iv(0, 7, 4), |_| true);
        t.check_invariants();
        assert_eq!(crate::normalize(t.to_vec()), vec![iv(0, 7, 4)]);
    }

    #[test]
    fn read_partial_old_wins_trims_new() {
        let mut t = Treap::new();
        t.insert_read(iv(0, 10, 1), |_| true);
        t.insert_read(iv(5, 20, 2), |_| false);
        t.check_invariants();
        assert_eq!(contents(&t), vec![(0, 10, 1), (10, 20, 2)]);
    }

    #[test]
    fn read_partial_left_old_wins_trims_new() {
        let mut t = Treap::new();
        t.insert_read(iv(10, 20, 1), |_| true);
        t.insert_read(iv(0, 15, 2), |_| false);
        t.check_invariants();
        assert_eq!(contents(&t), vec![(0, 10, 2), (10, 20, 1)]);
    }

    #[test]
    fn query_reports_all_overlaps_without_modifying() {
        let mut t = Treap::new();
        for (s, e, w) in [(0, 5, 1), (10, 15, 2), (20, 25, 3), (30, 35, 4)] {
            t.insert_write(iv(s, e, w), |_, _, _| {});
        }
        let before = contents(&t);
        let mut hits = Vec::new();
        t.query_overlaps(3, 22, |w, lo, hi| hits.push((w, lo, hi)));
        hits.sort_unstable();
        assert_eq!(hits, vec![(1, 3, 5), (2, 10, 15), (3, 20, 22)]);
        assert_eq!(contents(&t), before);
        t.check_invariants();
    }

    #[test]
    fn query_on_empty_and_miss() {
        let mut t: Treap<u32> = Treap::new();
        t.query_overlaps(0, 100, |_, _, _| panic!("empty tree has no overlaps"));
        t.insert_write(iv(10, 20, 1), |_, _, _| {});
        t.query_overlaps(0, 10, |_, _, _| panic!("touching is not overlapping"));
        t.query_overlaps(20, 30, |_, _, _| panic!("touching is not overlapping"));
    }

    #[test]
    fn heights_stay_logarithmic() {
        let mut t = Treap::new();
        // Sorted insertion order — worst case for an unbalanced BST.
        for i in 0..10_000u64 {
            t.insert_write(iv(i * 10, i * 10 + 5, (i % 7) as u32), |_, _, _| {});
        }
        let h = t.height();
        assert!(h < 64, "height {h} too large for 10k nodes — not balanced");
        t.check_invariants();
    }

    #[test]
    fn bulk_append_matches_loop_inserts() {
        // Strand-end flush pattern: each batch of sorted disjoint runs lands
        // entirely beyond everything stored (fresh address block per batch).
        let batches: Vec<Vec<(u64, u64)>> = (0..20u64)
            .map(|b| {
                (0..5)
                    .map(|i| (b * 100 + i * 10, b * 100 + i * 10 + 4))
                    .collect()
            })
            .collect();
        let mut bulk = Treap::new();
        let mut looped = Treap::new();
        for (w, batch) in batches.iter().enumerate() {
            bulk.insert_writes_for(w as u32, batch, |_, _, _| panic!("no overlap expected"));
            for &(lo, hi) in batch {
                looped.insert_write(iv(lo, hi, w as u32), |_, _, _| panic!("no overlap"));
            }
            bulk.check_invariants();
        }
        assert_eq!(contents(&bulk), contents(&looped));
        assert_eq!(bulk.insert_ops(), looped.insert_ops());
        assert_eq!(bulk.len_high_water(), looped.len_high_water());
    }

    #[test]
    fn bulk_prepend_then_overlapping_batches() {
        let mut t = Treap::new();
        let runs = |base: u64| -> Vec<(u64, u64)> {
            (0..6)
                .map(|i| (base + 20 * i, base + 20 * i + 10))
                .collect()
        };
        t.insert_writes_for(1, &runs(1000), |_, _, _| panic!("no overlap expected"));
        // Entirely below everything stored: the middle of the cut is empty.
        t.insert_writes_for(2, &runs(0), |_, _, _| panic!("no overlap expected"));
        t.check_invariants();
        assert_eq!(t.len(), 12);
        assert_eq!(contents(&t)[5], (100, 110, 2));
        assert_eq!(contents(&t)[6], (1000, 1010, 1));
        // A batch bridging both groups runs the case analysis on the middle
        // and reports conflicts exactly as single inserts would.
        let mut hits = Vec::new();
        t.insert_writes_for(
            3,
            &[(85, 105), (106, 107), (500, 600), (995, 1005)],
            |w, lo, hi| hits.push((w, lo, hi)),
        );
        hits.sort_unstable();
        assert_eq!(
            hits,
            vec![(1, 1000, 1005), (2, 85, 90), (2, 100, 105), (2, 106, 107)]
        );
        t.check_invariants();
        assert_eq!(t.len(), 17);
    }

    #[test]
    fn bulk_read_append_then_overlap_resolves_leftmost() {
        let mut t = Treap::new();
        let stored: Vec<(u64, u64)> = (0..8).map(|i| (20 * i, 20 * i + 10)).collect();
        t.insert_reads_for(1, &stored, |_| panic!("no overlap expected"));
        t.check_invariants();
        // An overlapping read batch resolves left-of per region: the old
        // reader stays, the new one fills the gaps.
        let gaps: Vec<(u64, u64)> = (0..7).map(|i| (20 * i + 5, 20 * i + 25)).collect();
        t.insert_reads_for(2, &gaps, |_| false);
        t.check_invariants();
        assert_eq!(
            crate::normalize(t.to_vec())[..3],
            [iv(0, 10, 1), iv(10, 20, 2), iv(20, 30, 1)]
        );
        assert_eq!(t.len(), 15);
    }

    #[test]
    fn short_and_unsorted_batches_take_the_per_run_path() {
        let mut t = Treap::new();
        // Not sorted: the splice must reject it and loop.
        t.insert_writes_for(1, &[(50, 60), (0, 10), (70, 80), (20, 30)], |_, _, _| {});
        t.check_invariants();
        assert_eq!(
            contents(&t),
            vec![(0, 10, 1), (20, 30, 1), (50, 60, 1), (70, 80, 1)]
        );
        // Fewer than MIN_BULK_RUNS runs: no cut, so no split or join visits.
        let mut hits = Vec::new();
        t.insert_writes_for(3, &[(25, 55)], |w, lo, hi| hits.push((w, lo, hi)));
        hits.sort_unstable();
        assert_eq!(hits, vec![(1, 25, 30), (1, 50, 55)]);
        t.check_invariants();
    }

    #[test]
    fn tied_priorities_build_the_same_shape_on_both_paths() {
        // Saturate the degenerate counter so that every draw ties: `join`,
        // the rotations and the O(n) build must all rank the smaller key
        // higher, or the spliced and the per-run tree differ in shape.
        let tied = || {
            let mut t: Treap<u32> = Treap::new();
            (t.degenerate, t.seed) = (true, u32::MAX as u64 - 3);
            t
        };
        let (mut bulk, mut looped) = (tied(), tied());
        let batches: [Vec<(u64, u64)>; 4] = [
            (0..40).map(|i| (100 + 10 * i, 106 + 10 * i)).collect(),
            (0..9).map(|i| (143 + 20 * i, 158 + 20 * i)).collect(),
            (0..12).map(|i| (4 * i, 4 * i + 2)).collect(),
            (0..30).map(|i| (90 + 14 * i, 97 + 14 * i)).collect(),
        ];
        for (w, runs) in batches.iter().enumerate() {
            let (mut hb, mut hl) = (Vec::new(), Vec::new());
            if w % 2 == 0 {
                bulk.insert_writes_for(w as u32, runs, |a, lo, hi| hb.push((a, lo, hi)));
                for &(lo, hi) in runs {
                    looped.insert_write(iv(lo, hi, w as u32), |a, lo, hi| hl.push((a, lo, hi)));
                }
            } else {
                bulk.insert_reads_for(w as u32, runs, |old| old % 2 == 0);
                for &(lo, hi) in runs {
                    looped.insert_read(iv(lo, hi, w as u32), |old| old % 2 == 0);
                }
            }
            bulk.check_invariants();
            assert_eq!(hb, hl, "conflict order follows the shape");
            assert_eq!(contents(&bulk), contents(&looped));
            assert_eq!(bulk.height(), looped.height());
        }
        assert!(
            (0..bulk.nodes.len() as u32)
                .filter(|&i| bulk.prio(i) == u32::MAX)
                .count()
                > 50
        );
    }

    #[test]
    fn splice_visits_the_middle_not_the_whole_tree() {
        // 4096 stored intervals; a 64-run batch confined to one corner must
        // descend a 64-node middle, not the whole tree, once per run.
        let stored: Vec<(u64, u64)> = (0..4096).map(|i| (10 * i, 10 * i + 6)).collect();
        let runs: Vec<(u64, u64)> = (100..164).map(|i| (10 * i + 2, 10 * i + 4)).collect();
        let (mut bulk, mut looped) = (Treap::new(), Treap::new());
        bulk.insert_writes_for(1, &stored, |_, _, _| {});
        looped.insert_writes_for(1, &stored, |_, _, _| {});
        let (b0, l0) = (bulk.stats().visited, looped.stats().visited);
        bulk.insert_writes_for(2, &runs, |_, _, _| {});
        for &(lo, hi) in &runs {
            looped.insert_write(iv(lo, hi, 2), |_, _, _| {});
        }
        bulk.check_invariants();
        assert_eq!(contents(&bulk), contents(&looped));
        assert_eq!(bulk.height(), looped.height());
        assert_eq!(bulk.stats().ops, looped.stats().ops);
        assert_eq!(bulk.stats().overlaps, looped.stats().overlaps);
        let (b, l) = (bulk.stats().visited - b0, looped.stats().visited - l0);
        assert!(4 * b < 3 * l, "bulk visited {b}, per-run {l}");
    }

    /// After an unwind out of a bulk write batch at run `failed`: the tree
    /// is valid, the runs before `failed` are recorded, every interval of
    /// `before` that `runs[..=failed]` do not touch is still there, and the
    /// tree still takes inserts.
    fn assert_survived(
        t: &mut Treap<u32>,
        before: &[(u64, u64, u32)],
        runs: &[(u64, u64)],
        failed: usize,
        who: u32,
    ) {
        t.check_invariants();
        let now = contents(t);
        assert_eq!(t.len(), now.len());
        for &(lo, hi) in &runs[..failed] {
            assert!(
                now.contains(&(lo, hi, who)),
                "completed run {lo}..{hi} lost"
            );
        }
        for b in before {
            if runs[..=failed]
                .iter()
                .all(|&(lo, hi)| hi <= b.0 || b.1 <= lo)
            {
                assert!(now.contains(b), "untouched interval {b:?} lost");
            }
        }
        let s = t.stats();
        assert_eq!(s.len_hw, t.len_high_water() as u64);
        t.insert_writes_for(who + 1, runs, |_, _, _| {});
        t.check_invariants();
        t.insert_write(iv(0, u64::MAX, who + 2), |_, _, _| {});
        t.check_invariants();
        assert_eq!(contents(t), vec![(0, u64::MAX, who + 2)]);
    }

    #[test]
    fn arena_exhausted_mid_batch_leaves_a_valid_tree() {
        let stored: Vec<(u64, u64)> = (0..64).map(|i| (10 * i, 10 * i + 6)).collect();
        // In the gaps (the case analysis on a non-empty middle) and beyond
        // the cover (the O(n) build): every run allocates one node.
        for base in [6u64, 5000] {
            let runs: Vec<(u64, u64)> = (0..40)
                .map(|i| (10 * i + base, 10 * i + base + 2))
                .collect();
            for room in [0usize, 1, 17, 39] {
                let mut t = Treap::new();
                t.insert_writes_for(1, &stored, |_, _, _| {});
                let before = contents(&t);
                t.set_node_cap(stored.len() + room);
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    t.insert_writes_for(2, &runs, |_, _, _| panic!("gaps only"));
                }))
                .expect_err("the cap must trip mid-batch");
                assert!(payload.is::<stint_faults::DetectorError>());
                assert_eq!(t.len(), stored.len() + room);
                t.set_node_cap(usize::MAX);
                assert_survived(&mut t, &before, &runs, room, 2);
            }
        }
    }

    /// 200 stored intervals plus one wide one; the batch's first twelve runs
    /// each clip one stored interval and bury three (cases B and D with
    /// REMOVEOVERLAP on both sides), the last three sit strictly inside the
    /// wide one (case C).
    fn conflicting_batch() -> [Vec<(u64, u64)>; 2] {
        let mut stored: Vec<(u64, u64)> = (0..200).map(|i| (10 * i, 10 * i + 6)).collect();
        stored.push((5000, 6000));
        let mut runs: Vec<(u64, u64)> = (0..12).map(|j| (103 + 40 * j, 138 + 40 * j)).collect();
        runs.extend([(5100, 5110), (5200, 5210), (5300, 5310)]);
        [stored, runs]
    }

    #[test]
    fn conflict_callback_unwinding_on_any_call_leaves_a_valid_tree() {
        let [stored, runs] = conflicting_batch();
        let mut k = 0;
        loop {
            k += 1;
            let mut t = Treap::new();
            for (i, &(lo, hi)) in stored.iter().enumerate() {
                t.insert_write(iv(lo, hi, i as u32 % 5 + 10), |_, _, _| {});
            }
            let before = contents(&t);
            let (mut calls, mut failed) = (0, None);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.insert_writes_for(2, &runs, |_, lo, _| {
                    calls += 1;
                    if calls == k {
                        failed = runs.iter().position(|r| r.0 <= lo && lo < r.1);
                        panic!("conflict callback {k}");
                    }
                });
            }));
            if caught.is_ok() {
                assert_eq!(calls, 12 * 4 + 3, "every conflict reported once");
                t.check_invariants();
                break;
            }
            assert_survived(&mut t, &before, &runs, failed.expect("inside a run"), 2);
        }
    }

    #[test]
    fn left_of_callback_unwinding_on_any_call_leaves_a_valid_tree() {
        let [stored, runs] = conflicting_batch();
        let mut k = 0;
        loop {
            k += 1;
            let mut t = Treap::new();
            for (i, &(lo, hi)) in stored.iter().enumerate() {
                t.insert_read(iv(lo, hi, i as u32 % 5 + 10), |_| true);
            }
            let before = contents(&t);
            let mut calls = 0;
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.insert_reads_for(2, &runs, |old| {
                    calls += 1;
                    if calls == k {
                        panic!("left-of callback {k}");
                    }
                    old % 2 == 0
                });
            }));
            t.check_invariants();
            assert_eq!(t.len(), t.to_vec().len());
            // A read re-labels or trims what it overlaps and then covers the
            // trimmed part itself, so only the run that unwound half-way can
            // have left words of `before` uncovered.
            let now = crate::normalize(t.to_vec().iter().map(|i| iv(i.start, i.end, 0)).collect());
            let harmed = |r: &&(u64, u64)| {
                before.iter().any(|b| {
                    b.0 < r.1 && r.0 < b.1 && !now.iter().any(|n| n.start <= b.0 && b.1 <= n.end)
                })
            };
            assert!(runs.iter().filter(harmed).count() <= 1, "callback {k}");
            t.insert_reads_for(3, &runs, |_| true);
            t.check_invariants();
            if caught.is_ok() {
                break;
            }
        }
        assert!(k > 12 * 4, "the loop reached every callback");
    }

    /// Links and priorities of every arena slot, and the root: the shape.
    fn shape(t: &Treap<u32>) -> (u32, Vec<(u32, u32, u32)>) {
        let links = (0..t.nodes.len() as u32)
            .map(|i| (t.prio(i), t.n(i).left, t.n(i).right))
            .collect();
        (t.root, links)
    }

    /// A table of `words` one-word readers, reader `i % 7` on word `i`, put
    /// in by two interleaved read batches (the second one probes).
    fn saturated_table(words: u64) -> (Treap<u32>, crate::FlatStore<u32>) {
        let (mut t, mut flat) = (Treap::new(), crate::FlatStore::new());
        for who in 0..7u32 {
            for phase in 0..2 {
                let runs: Vec<(u64, u64)> = (0..words)
                    .filter(|i| i % 7 == who as u64 && i % 2 == phase)
                    .map(|i| (i, i + 1))
                    .collect();
                t.insert_reads_for(who, &runs, |_| panic!("first touches only"));
                flat.insert_reads_for(who, &runs, |_| panic!("first touches only"));
            }
        }
        assert_eq!(t.len() as u64, words);
        (t, flat)
    }

    #[test]
    fn rereading_a_saturated_table_relinks_nothing() {
        let (mut t, mut flat) = saturated_table(4096);
        let runs: Vec<(u64, u64)> = (0..4096).step_by(13).map(|i| (i, i + 1)).collect();
        let before = (
            t.len(),
            t.heap_bytes(),
            t.height(),
            shape(&t),
            t.insert_ops(),
        );
        let bounds = |t: &Treap<u32>| -> Vec<(u64, u64)> {
            t.to_vec().iter().map(|i| (i.start, i.end)).collect()
        };
        let stored = bounds(&t);
        // The new reader is left of the stored readers 0, 2, 4 and 6.
        let mut asked = Vec::new();
        t.insert_reads_for(9, &runs, |old| {
            asked.push(old);
            old % 2 == 0
        });
        flat.insert_reads_for(9, &runs, |old| old % 2 == 0);
        t.check_invariants();
        let want: Vec<u32> = runs.iter().map(|r| (r.0 % 7) as u32).collect();
        assert_eq!(asked, want, "once per run, in address order");
        assert!(asked.iter().any(|o| o % 2 == 0) && asked.iter().any(|o| o % 2 == 1));
        let after = (
            t.len(),
            t.heap_bytes(),
            t.height(),
            shape(&t),
            t.insert_ops(),
        );
        assert_eq!(
            after,
            (
                before.0,
                before.1,
                before.2,
                before.3,
                before.4 + runs.len() as u64
            ),
            "no node, byte, link or rotation"
        );
        assert_eq!(bounds(&t), stored);
        assert_eq!(t.to_vec(), flat.to_vec(), "accessors");
        assert_eq!(t.settled, runs.len() as u64);
    }

    #[test]
    fn runs_after_a_carve_land_on_its_remnants() {
        // One-word readers 1..=4 around reader 0's wide interval. The batch
        // settles two runs, carves the wide interval in its middle — which
        // re-links the path the later runs would resume from — and then lands
        // on the right remnant three times (kept, carved again, clipped at
        // its end) before it goes on into the readers beyond.
        let (mut bulk, mut looped) = (Treap::with_seed(11), Treap::with_seed(11));
        let mut flat = crate::FlatStore::new();
        let mut stored: Vec<(u64, u64)> = (0..300).map(|i| (3 * i, 3 * i + 1)).collect();
        stored.push((1000, 2000));
        stored.extend((0..300).map(|i| (2100 + 3 * i, 2101 + 3 * i)));
        for (i, &(lo, hi)) in stored.iter().enumerate() {
            let who = if hi - lo > 1 { 0 } else { 1 + i as u32 % 4 };
            for t in [&mut bulk, &mut looped] {
                t.insert_read(iv(lo, hi, who), |_| panic!("disjoint"));
            }
            flat.insert_read(iv(lo, hi, who), |_| panic!("disjoint"));
        }
        let runs = [
            (30, 31),
            (33, 34),
            (1400, 1410),
            (1410, 1411),
            (1500, 1501),
            (1990, 2005),
            (2100, 2101),
            (2990, 2999),
        ];
        // Left of readers 2 and 4, and of reader 0 except the second time.
        let left_of = |asked: &[u32], old: u32| match old {
            0 => asked.iter().filter(|&&o| o == 0).count() != 2,
            _ => old.is_multiple_of(2),
        };
        let (mut ab, mut al, mut af) = (Vec::new(), Vec::new(), Vec::new());
        bulk.insert_reads_for(8, &runs, |old| {
            ab.push(old);
            left_of(&ab, old)
        });
        for &(lo, hi) in &runs {
            looped.insert_read(iv(lo, hi, 8), |old| {
                al.push(old);
                left_of(&al, old)
            });
        }
        flat.insert_reads_for(8, &runs, |old| {
            af.push(old);
            left_of(&af, old)
        });
        bulk.check_invariants();
        assert_eq!(ab, al, "question sequence");
        assert_eq!(contents(&bulk), contents(&looped));
        assert_eq!(bulk.height(), looped.height());
        assert_eq!(shape(&bulk), shape(&looped));
        assert_eq!(
            crate::normalize(bulk.to_vec()),
            crate::normalize(flat.to_vec())
        );
        assert_eq!(ab[..7], [3, 4, 0, 0, 0, 0, 2]);
        assert_eq!(
            contents(&bulk)[300..307],
            [
                (1000, 1400, 0),
                (1400, 1410, 8),
                (1410, 1500, 0),
                (1500, 1501, 8),
                (1501, 1990, 0),
                (1990, 2005, 8),
                (2100, 2101, 8)
            ]
        );
    }

    #[test]
    fn left_of_callback_unwinding_from_a_settled_batch_moves_nothing() {
        let runs: Vec<(u64, u64)> = (0..1024).step_by(9).map(|i| (i, i + 1)).collect();
        for k in 1..=runs.len() {
            let (mut t, _) = saturated_table(1024);
            let (before, before_shape) = (contents(&t), shape(&t));
            let mut calls = 0;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.insert_reads_for(9, &runs, |old| {
                    calls += 1;
                    if calls == k {
                        panic!("left-of callback {k}");
                    }
                    old % 2 == 0
                });
            }))
            .expect_err("the callback unwinds");
            t.check_invariants();
            // The runs before the k-th are settled and nothing else moved:
            // the relink the unwind out of an open cut triggers finds the
            // (key, priority) set, hence the shape, it had before the batch.
            let want: Vec<(u64, u64, u32)> = before
                .iter()
                .map(|&(lo, hi, who)| {
                    let settled = runs[..k - 1].contains(&(lo, hi)) && who % 2 == 0;
                    (lo, hi, if settled { 9 } else { who })
                })
                .collect();
            assert_eq!(contents(&t), want, "callback {k}");
            assert_eq!(shape(&t), before_shape, "callback {k}");
        }
    }

    #[test]
    fn list_shaped_read_tree_is_reread_and_extended() {
        // `treap-degenerate` priorities (set directly: the plan is process
        // state and other tests build treaps meanwhile). Ascending first
        // touches make a left spine: depth = len.
        let mut t: Treap<u32> = Treap::new();
        (t.degenerate, t.seed) = (true, 0);
        let mut flat = crate::FlatStore::new();
        let table: Vec<(u64, u64)> = (0..2000).map(|i| (10 + 2 * i, 11 + 2 * i)).collect();
        t.insert_reads_for(1, &table, |_| panic!("first touches"));
        flat.insert_reads_for(1, &table, |_| panic!("first touches"));
        assert_eq!(t.height(), t.len());
        // Per-run re-read of the deepest word: every other node is on the path.
        for store_read in [true, false] {
            t.insert_read(iv(10, 11, 2), |_| store_read);
            flat.insert_read(iv(10, 11, 2), |_| store_read);
            assert_eq!(t.path.len(), t.len() - 1);
        }
        assert_eq!(
            t.heap_bytes() as usize,
            t.nodes.capacity() * 24 + t.free.capacity() * 4 + t.path.capacity() * 16
        );
        // A batch re-reads the deep end and extends it below and between:
        // each new node outranks the whole list and is sifted to the root.
        let runs = [(4, 5), (10, 11), (11, 12), (12, 13), (14, 16), (4008, 4012)];
        t.insert_reads_for(3, &runs, |old| old == 2);
        flat.insert_reads_for(3, &runs, |old| old == 2);
        t.check_invariants();
        assert_eq!(
            crate::normalize(t.to_vec()),
            crate::normalize(flat.to_vec())
        );
        assert_eq!(t.len(), 2000 + 4);
        // ...and the list is read again from its far end.
        t.insert_reads_for(4, &table[1990..], |_| true);
        flat.insert_reads_for(4, &table[1990..], |_| true);
        t.check_invariants();
        assert_eq!(
            crate::normalize(t.to_vec()),
            crate::normalize(flat.to_vec())
        );
    }

    type Hits = Vec<(u32, u64, u64)>;

    /// The write insert without the probe: the recursive `iw` from the root
    /// (of the cut's middle, in a splice) once per run.
    fn recursive_writes(t: &mut Treap<u32>, who: u32, runs: &[(u64, u64)], hits: &mut Hits) {
        let mut cb = |a, lo, hi| hits.push((a, lo, hi));
        if !t.splice(who, runs, false, |t, m, x| t.iw(m, x, &mut cb)) {
            for &(lo, hi) in runs {
                let x = iv(lo, hi, who);
                t.insert_one(x, false, |t, root| t.iw(root, x, &mut cb));
            }
        }
    }

    /// A sorted batch of up to `most` runs laid against the stored intervals
    /// `s`, each run of one kind: a new leaf in a gap, an exact rewrite (case
    /// D, nothing removed), a carve (case C), a clip of one interval's right
    /// or left end (case B), or a span from inside one interval to inside
    /// the third after it (case D with REMOVEOVERLAP on both sides where the
    /// probe stops on one of the two covered intervals).
    fn write_batch(
        s: &[(u64, u64, u32)],
        most: usize,
        next: &mut impl FnMut() -> u64,
    ) -> Vec<(u64, u64)> {
        let (mut runs, mut i) = (Vec::new(), (next() % 3) as usize);
        while i + 4 < s.len() && runs.len() < most {
            let ((a0, a1), (b0, b1), d1) = ((s[i].0, s[i].1), (s[i + 1].0, s[i + 1].1), s[i + 3].1);
            let kind = next() % 6;
            let run = match kind {
                0 => (a1, b0),
                1 => (a0, a1),
                2 => (a0 + 1, a1 - 1),
                3 => (a1 - 1, b0),
                4 => (a1, b0 + (b1 - b0) / 2),
                _ => (a0 + 1, d1 - 1),
            };
            if run.0 < run.1 {
                runs.push(run);
            }
            i += if kind == 5 { 4 } else { 2 } + (next() % 3) as usize;
        }
        runs
    }

    #[test]
    fn probed_writes_walk_the_tree_the_recursive_insert_walks() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut probed, mut recursive) = (Treap::with_seed(5), Treap::with_seed(5));
        let stored: Vec<(u64, u64)> = (0..600).map(|i| (10 * i, 10 * i + 6)).collect();
        let (mut hp, mut hr) = (Hits::new(), Hits::new());
        for round in 0..80u32 {
            if round % 9 == 8 {
                // A free: one wide run, covering and clipping what it meets.
                let lo = next() % 6000;
                let x = iv(lo, lo + 1 + next() % 90, u32::MAX);
                probed.insert_write(x, |a, lo, hi| hp.push((a, lo, hi)));
                let mut cb = |a, lo, hi| hr.push((a, lo, hi));
                recursive.insert_one(x, false, |t, root| t.iw(root, x, &mut cb));
            } else {
                let runs = if round == 0 {
                    stored.clone()
                } else {
                    write_batch(&contents(&probed), 1 + (next() % 40) as usize, &mut next)
                };
                probed.insert_writes_for(round, &runs, |a, lo, hi| hp.push((a, lo, hi)));
                recursive_writes(&mut recursive, round, &runs, &mut hr);
            }
            probed.check_invariants();
            assert_eq!(hp, hr, "round {round}: conflict sequence");
            assert_eq!(shape(&probed), shape(&recursive), "round {round}");
            assert_eq!(contents(&probed), contents(&recursive), "round {round}");
            let (p, r) = (probed.stats(), recursive.stats());
            assert_eq!((p.ops, p.overlaps, p.len_hw), (r.ops, r.overlaps, r.len_hw));
        }
        assert!(probed.settled > 0, "no exact rewrite");
        let (p, r) = (probed.stats().visited, recursive.stats().visited);
        assert!(p < r, "probed visited {p}, recursive {r}");
    }

    #[test]
    fn list_shaped_write_tree_is_rewritten_and_extended() {
        // `treap-degenerate` priorities, set directly as in the read twin.
        let mut t: Treap<u32> = Treap::new();
        (t.degenerate, t.seed) = (true, 0);
        let mut flat = crate::FlatStore::new();
        let (mut ht, mut hf) = (Hits::new(), Hits::new());
        let table: Vec<(u64, u64)> = (0..2000).map(|i| (10 + 2 * i, 11 + 2 * i)).collect();
        t.insert_writes_for(1, &table, |_, _, _| panic!("first touches"));
        flat.insert_writes_for(1, &table, |_, _, _| panic!("first touches"));
        assert_eq!(t.height(), t.len());
        // Per-run rewrite of the deepest word: every other node is on the
        // path, and the write settles there.
        for who in [2, 3] {
            t.insert_write(iv(10, 11, who), |a, lo, hi| ht.push((a, lo, hi)));
            flat.insert_write(iv(10, 11, who), |a, lo, hi| hf.push((a, lo, hi)));
            assert_eq!(t.path.len(), t.len() - 1);
        }
        assert_eq!(t.settled, 2);
        assert_eq!(
            t.heap_bytes() as usize,
            t.nodes.capacity() * 24 + t.free.capacity() * 4 + t.path.capacity() * 16
        );
        // A batch rewrites the deep end, extends it below and between, runs
        // one word into the gap past a stored one, and buries the list's top
        // two words under one run.
        let runs = [(4, 5), (10, 11), (11, 12), (12, 13), (14, 16), (4006, 4012)];
        t.insert_writes_for(4, &runs, |a, lo, hi| ht.push((a, lo, hi)));
        flat.insert_writes_for(4, &runs, |a, lo, hi| hf.push((a, lo, hi)));
        t.check_invariants();
        let same = |t: &Treap<u32>, flat: &crate::FlatStore<u32>| {
            crate::normalize(t.to_vec()) == crate::normalize(flat.to_vec())
        };
        assert!(same(&t, &flat));
        assert_eq!(t.len(), 2000 + 2 - 1);
        // ...and the list is written again from its far end.
        t.insert_writes_for(5, &table[1990..], |a, lo, hi| ht.push((a, lo, hi)));
        flat.insert_writes_for(5, &table[1990..], |a, lo, hi| hf.push((a, lo, hi)));
        t.check_invariants();
        assert!(same(&t, &flat));
        ht.sort_unstable();
        hf.sort_unstable();
        assert_eq!(ht, hf);
    }

    #[test]
    fn cover_early_out_skips_walks_but_stays_exact() {
        let mut t = Treap::new();
        t.insert_write(iv(100, 200, 1), |_, _, _| {});
        let s0 = t.stats();
        // Disjoint query left and right of the cover: zero nodes visited.
        t.query_overlaps(0, 100, |_, _, _| panic!("touching is not overlapping"));
        t.query_overlaps(200, 300, |_, _, _| panic!("touching is not overlapping"));
        let s1 = t.stats();
        assert_eq!(s1.ops, s0.ops + 2);
        assert_eq!(s1.visited, s0.visited, "cover miss must not walk the tree");
        // Overlapping query still reports exactly.
        let mut hits = Vec::new();
        t.query_overlaps(150, 250, |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 150, 200)]);
    }

    #[test]
    fn slot_priorities_are_the_per_node_stream() {
        // The stream each new node used to draw from: the `t`-th draw is the
        // priority of slot `t`, so an arena that reuses no slot builds the
        // tree that stream built.
        fn next_prio(rng: &mut u64, degenerate: bool) -> u32 {
            if degenerate {
                *rng = (*rng + 1).min(u32::MAX as u64);
                return *rng as u32;
            }
            *rng = rng.wrapping_add(GOLDEN);
            let mut z = *rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 32) as u32
        }
        for (seed, degenerate, base) in [
            (0x5EED_1234_5678_9ABC, false, 0),
            (11, false, 0),
            (0, true, 0),
            (0, true, u32::MAX as u64 - 3),
        ] {
            let mut t: Treap<u32> = Treap::with_seed(seed);
            if degenerate {
                (t.degenerate, t.seed) = (true, base);
            }
            let mut rng = t.seed;
            for slot in 0..10_000 {
                assert_eq!(t.prio(slot), next_prio(&mut rng, degenerate), "slot {slot}");
            }
        }
    }

    /// Slot `t`'s bounds as stored (not as `to_vec` rebuilds them).
    fn bounds_of(t: &Treap<u32>, slot: u32) -> (u64, u64) {
        (t.n(slot).start, t.end(slot))
    }

    #[test]
    fn wide_nodes_turn_narrow_and_back_through_the_side_table() {
        const G: u64 = 1 << 32;
        let exact_bytes = |t: &Treap<u32>| {
            t.nodes.capacity() * 24
                + (t.free.capacity() + t.wide_free.capacity()) * 4
                + t.wide.capacity() * 8
                + t.path.capacity() * 16
        };
        let (mut t, mut flat) = (Treap::new(), crate::FlatStore::new());
        let mut write = |t: &mut Treap<u32>, lo: u64, hi: u64, who: u32| {
            let (mut ht, mut hf) = (Hits::new(), Hits::new());
            t.insert_write(iv(lo, hi, who), |a, lo, hi| ht.push((a, lo, hi)));
            flat.insert_write(iv(lo, hi, who), |a, lo, hi| hf.push((a, lo, hi)));
            t.check_invariants();
            ht.sort_unstable();
            hf.sort_unstable();
            assert_eq!(ht, hf, "{lo}..{hi}");
            assert_eq!(
                crate::normalize(t.to_vec()),
                crate::normalize(flat.to_vec())
            );
            assert_eq!(t.heap_bytes() as usize, exact_bytes(t));
        };
        // Narrow runs own no side table.
        write(&mut t, 10, 20, 1);
        assert_eq!((t.wide.capacity(), t.wide_free.capacity()), (0, 0));
        let narrow = t.heap_bytes();
        // Case D widens the narrow node in place; the table appears.
        write(&mut t, 0, 2 * G, 2);
        assert_eq!((t.len(), t.nodes[0].len), (1, WIDE));
        assert_eq!(bounds_of(&t, 0), (0, 2 * G));
        assert_eq!(t.heap_bytes(), narrow + 8 * t.wide.capacity() as u64);
        // Case B trims it back to narrow, and the new wide node takes the
        // entry that freed.
        write(&mut t, 5, 3 * G, 3);
        assert_eq!(bounds_of(&t, 0), (0, 5));
        assert_eq!((t.wide.len(), t.wide_free.len()), (1, 0));
        assert_eq!(t.nodes[1].len, WIDE);
        assert_eq!(bounds_of(&t, 1), (5, 3 * G));
        // A carve inside the wide node: all three pieces wide.
        write(&mut t, G, 2 * G, 4);
        assert_eq!(t.wide.len(), 3);
        // The whole space buries everything: one node, one entry live.
        write(&mut t, 0, u64::MAX, 5);
        assert_eq!(t.len(), 1);
        assert_eq!((t.wide.len(), t.wide_free.len()), (3, 2));
        // A freed wide slot is reused, node and entry alike.
        write(&mut t, 0, 1, 6);
        write(&mut t, 2, 3 * G, 7);
        assert_eq!((t.nodes.len(), t.wide.len(), t.wide_free.len()), (4, 3, 1));
        let bytes = t.heap_bytes();
        let mut runs: Vec<(u64, u64)> = (4..8).map(|i| (i * G, (i + 1) * G)).collect();
        runs.push((9 * G, u64::MAX));
        t.insert_writes_for(8, &runs, |_, _, _| {});
        flat.insert_writes_for(8, &runs, |_, _, _| {});
        t.check_invariants();
        assert_eq!(
            crate::normalize(t.to_vec()),
            crate::normalize(flat.to_vec())
        );
        assert!(t.heap_bytes() > bytes);
        assert_eq!(
            t.to_vec().iter().filter(|i| i.len() >= WIDE as u64).count(),
            8
        );
    }

    #[test]
    fn stats_count_ops_and_overlaps() {
        let mut t = Treap::new();
        t.insert_write(iv(0, 10, 1), |_, _, _| {});
        t.insert_write(iv(5, 15, 2), |_, _, _| {});
        t.query_overlaps(0, 20, |_, _, _| {});
        let s = t.stats();
        assert_eq!(s.ops, 3);
        assert!(s.overlaps >= 3); // 1 on second insert, 2 on query
        assert!(s.visited >= 3);
    }
}
