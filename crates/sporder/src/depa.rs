//! DePa-style relabel-free reachability for fork-join programs.
//!
//! SP-Order ([`SpOrder`](crate::SpOrder)) keeps the English/Hebrew orders in
//! mutable order-maintenance lists: every insertion may *relabel* existing nodes, so
//! a query is only valid while no maintenance runs — the structure is
//! inherently `&mut`-serialized. DePa (Westrick et al.) removes the mutation:
//! each strand gets an **immutable depth-vector timestamp** assigned once at
//! creation (spawn / sync / call), and every `series`/`parallel` verdict is a
//! pure comparison of two published vectors. Published timestamps are never
//! touched again — no relabeling, no locks — so any number of threads may
//! query them in O(depth), through a shared `&DePaReach` or through an owned
//! [`DePaReach::view`] while the executor keeps publishing new ones.
//!
//! # Timestamps
//!
//! A strand's timestamp is its *path*: one packed coordinate per open
//! frame on the fork-join spine, ending at the strand's own slot. A
//! coordinate packs `(era, serial, step)`:
//!
//! * `era` — the frame's sync-block generation. Every sync bumps the era, so
//!   strands of era `g` are in series before everything of era `g+1`.
//! * `step` — the slot within the era, advanced at each spawn and at each
//!   serial-call return.
//! * `serial` — a tag on the path coordinate of a *called* subcomputation:
//!   a call runs serially inside its caller's strand, so its subtree is in
//!   series with later slots of the same era (a *spawned* subtree at the
//!   same depth would be parallel to them).
//!
//! # The comparison rule
//!
//! For paths `a`, `b`, find the first position `i` where the (serial-masked)
//! coordinates differ.
//!
//! * No such position: the shorter path is a prefix — a frame strand is in
//!   series before its whole subcomputation (`a ≺ b` iff `a` is shorter).
//! * Coordinates differ, `a[i] < b[i]` (symmetrically for `>`):
//!   * `a` **ends at `i`**: `a` is the frame strand owning slot `a[i]` and
//!     `b` lives in a later slot of the same frame — `a ≺ b`;
//!   * `era(a[i]) < era(b[i])`: a sync separates them — `a ≺ b`;
//!   * `a[i]` carries the **serial** tag: `a` is inside a call that returned
//!     (and implicitly synced) before `b`'s slot opened — `a ≺ b`;
//!   * otherwise both are spawned subtrees of the same sync block —
//!     `a ∥ b`, with `a` first in the sequential (English) order.
//!
//! The English order is therefore the masked-lexicographic path order with
//! prefixes first (= the sequential depth-first execution order), and the
//! Hebrew order is the same order with exactly the parallel pairs flipped.
//! [`DePaReach::freeze`] materializes both as rank permutations, producing a
//! [`FrozenReach`] interchangeable with an SP-Order snapshot of the same
//! execution.
//!
//! # Maintenance
//!
//! Maintenance mirrors the executor's frame stack and is `&mut` (the
//! executor owns the structure while the program runs); the published
//! timestamp arena is append-only with stable addresses (a power-of-two
//! brick spine) and publishes through `&self`, so maintenance never
//! invalidates a timestamp a [`DePaReach::view`] reader holds. Era bumps are
//! *lazy*: a sync block's sync strand is created (at `era+1`) when the
//! block's first spawn executes, but the frame commits to the new era only
//! when execution actually continues as that strand (`resync`), keeping
//! not-taken sync strands harmless.

use std::sync::{Arc, OnceLock};

use crate::{FrozenReach, ReachMaint, Reachability, SpawnStrands, StrandId, NO_PARENT};

// Observability (no-ops costing one relaxed load while `stint-obs` is
// disabled). `depa.queries` counts order queries answered from published
// timestamps; `depa.timestamps` counts published strand timestamps;
// `depa.bytes` tracks the arena + lineage footprint. (`depa.merges` is
// counted where merging happens, in `stint-batchdet`'s online engine.)
static OBS_QUERIES: stint_obs::Counter = stint_obs::Counter::new("depa.queries");
static OBS_TIMESTAMPS: stint_obs::Counter = stint_obs::Counter::new("depa.timestamps");
static OBS_BYTES: stint_obs::Gauge = stint_obs::Gauge::new("depa.bytes");

/// Serial-call tag on a path coordinate (bit 32, between the step field and
/// the era field).
const SERIAL: u64 = 1 << 32;
/// Mask removing the serial tag for slot comparisons.
const MASK: u64 = !SERIAL;
/// Eras occupy the high 31 bits of a coordinate.
const MAX_ERA: u32 = (1 << 31) - 1;

#[inline]
fn coord(era: u32, step: u32) -> u64 {
    ((era as u64) << 33) | step as u64
}

#[inline]
fn era_of(masked: u64) -> u64 {
    masked >> 33
}

/// Pairwise relation of two timestamps, with the sequential-order direction
/// for parallel pairs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Rel {
    Equal,
    /// `a ≺ b`.
    SeriesAb,
    /// `b ≺ a`.
    SeriesBa,
    /// `a ∥ b`, `a` first in English order.
    ParallelAb,
    /// `a ∥ b`, `b` first in English order.
    ParallelBa,
}

/// The full comparison rule (module docs). Pure function of two published
/// paths — the concurrent-query guarantee rests on this taking `&[u64]`.
fn compare(a: &[u64], b: &[u64]) -> Rel {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] & MASK == b[i] & MASK {
        i += 1;
    }
    if i == n {
        return match a.len().cmp(&b.len()) {
            std::cmp::Ordering::Equal => Rel::Equal,
            std::cmp::Ordering::Less => Rel::SeriesAb,
            std::cmp::Ordering::Greater => Rel::SeriesBa,
        };
    }
    let (ca, cb) = (a[i] & MASK, b[i] & MASK);
    if ca < cb {
        if i + 1 == a.len() || era_of(ca) < era_of(cb) || a[i] & SERIAL != 0 {
            Rel::SeriesAb
        } else {
            Rel::ParallelAb
        }
    } else if i + 1 == b.len() || era_of(cb) < era_of(ca) || b[i] & SERIAL != 0 {
        Rel::SeriesBa
    } else {
        Rel::ParallelBa
    }
}

/// `a` before `b` in the English (sequential depth-first) order:
/// masked-lexicographic with prefixes first.
fn english_less(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    for i in 0..n {
        let (ca, cb) = (a[i] & MASK, b[i] & MASK);
        if ca != cb {
            return ca < cb;
        }
    }
    a.len() < b.len()
}

/// `a` before `b` in the Hebrew order: English with parallel pairs flipped.
fn hebrew_less(a: &[u64], b: &[u64]) -> bool {
    matches!(compare(a, b), Rel::SeriesAb | Rel::ParallelBa)
}

/// Append-only timestamp arena with stable addresses: a spine of
/// power-of-two *bricks*, each slot published exactly once through a
/// [`OnceLock`]. Growing the arena allocates a new brick and never moves a
/// published path, and publication takes `&self`: the one writer (the
/// [`DePaReach`] that counts the slots) sets slot `i` with a release store
/// while [`DePaReach::view`] readers load other slots. A reader may only ask
/// for a slot it learned of *after* its publication (a strand id that
/// reached it through a release/acquire edge); reading it then costs two
/// acquire loads and no locks.
type Brick = Box<[OnceLock<Box<[u64]>>]>;

struct PathArena {
    spine: [OnceLock<Brick>; 32],
}

/// Slots of the 32-brick spine: brick `b` holds `[2^b - 1, 2^(b+1) - 1)`.
const SLOTS: usize = (1 << 32) - 1;

/// Brick index and offset for slot `i`.
#[inline]
fn locate(i: usize) -> (usize, usize) {
    let k = i + 1;
    let b = (usize::BITS - 1 - k.leading_zeros()) as usize;
    (b, k - (1usize << b))
}

impl PathArena {
    /// Publish `path` at slot `i`, the writer's next; returns the heap bytes
    /// that added (path storage plus any newly allocated brick).
    fn publish(&self, i: usize, path: Box<[u64]>) -> u64 {
        let (b, off) = locate(i);
        let mut added = (path.len() * std::mem::size_of::<u64>()) as u64;
        if self.spine[b].get().is_none() {
            added += ((1usize << b) * std::mem::size_of::<OnceLock<Box<[u64]>>>()) as u64;
        }
        let brick =
            self.spine[b].get_or_init(|| (0..1usize << b).map(|_| OnceLock::new()).collect());
        brick[off]
            .set(path)
            .expect("arena slot is published exactly once");
        added
    }

    /// Read a published path. Lock-free: two acquire loads.
    #[inline]
    fn get(&self, i: usize) -> &[u64] {
        let (b, off) = locate(i);
        self.spine[b].get().expect("brick published")[off]
            .get()
            .expect("path published")
    }
}

/// One maintenance frame, mirroring the executor's frame stack: the shared
/// path prefix of every strand the frame creates, the current era/step
/// cursor, and the not-yet-committed sync strand of the open sync block.
struct DFrame {
    base: Vec<u64>,
    era: u32,
    step: u32,
    pending: Option<StrandId>,
}

/// Relabel-free reachability: immutable per-strand depth-vector timestamps
/// (module docs). Queries take `&self` and are lock-free; maintenance takes
/// `&mut self` and never mutates a published timestamp.
pub struct DePaReach {
    arena: Arc<PathArena>,
    /// Per strand: the strand that created it ([`NO_PARENT`] for the root) —
    /// the same spawn-tree lineage [`SpOrder`](crate::SpOrder)
    /// records, so race witnesses are substrate-independent.
    parents: Vec<u32>,
    frames: Vec<DFrame>,
    /// Measured footprint (arena + lineage), maintained incrementally.
    bytes: u64,
    /// Bytes last reported to the `depa.bytes` gauge.
    owned_bytes: u64,
}

impl Drop for DePaReach {
    fn drop(&mut self) {
        OBS_BYTES.reconcile(&mut self.owned_bytes, 0);
    }
}

impl Default for DePaReach {
    fn default() -> Self {
        Self::new().0
    }
}

impl DePaReach {
    /// Create the structure together with the root strand.
    pub fn new() -> (Self, StrandId) {
        let mut r = DePaReach {
            arena: Arc::new(PathArena {
                spine: std::array::from_fn(|_| OnceLock::new()),
            }),
            parents: Vec::new(),
            frames: vec![DFrame {
                base: Vec::new(),
                era: 0,
                step: 0,
                pending: None,
            }],
            bytes: 0,
            owned_bytes: 0,
        };
        let root = r.push(Box::new([coord(0, 0)]), NO_PARENT);
        (r, root)
    }

    /// Number of strands registered so far.
    #[inline]
    pub fn strand_count(&self) -> usize {
        self.parents.len()
    }

    /// The published timestamp of a strand (exposed for tests and tools).
    #[inline]
    pub fn timestamp(&self, s: StrandId) -> &[u64] {
        self.arena.get(s.index())
    }

    /// An owned, `Send + Sync`, **query-only** handle on the same timestamps,
    /// for a thread that queries while this structure keeps growing: the
    /// shared arena and nothing else — no frames (maintenance on it panics),
    /// no lineage (`parent_of` is `None`), `strand_count` 0. On strands
    /// published before its holder learned their ids it answers as the owner
    /// does. A `DePaReach` minus its maintenance state, not a second type
    /// with a second `Reachability` impl to keep in step.
    pub fn view(&self) -> DePaReach {
        DePaReach {
            arena: Arc::clone(&self.arena),
            parents: Vec::new(),
            frames: Vec::new(),
            bytes: 0,
            owned_bytes: 0,
        }
    }

    /// Heap bytes owned by the timestamp arena, lineage table and frame
    /// stack.
    pub fn heap_bytes(&self) -> u64 {
        let frames: usize = self
            .frames
            .iter()
            .map(|f| f.base.capacity() * std::mem::size_of::<u64>())
            .sum();
        self.bytes
            + (self.parents.capacity() * std::mem::size_of::<u32>()) as u64
            + (frames + self.frames.capacity() * std::mem::size_of::<DFrame>()) as u64
    }

    fn push(&mut self, path: Box<[u64]>, parent: u32) -> StrandId {
        let id = self.parents.len();
        assert!(id < SLOTS, "strand count exceeds the arena");
        OBS_TIMESTAMPS.incr();
        self.bytes += self.arena.publish(id, path);
        self.parents.push(parent);
        if stint_obs::is_enabled() {
            let b = self.heap_bytes();
            OBS_BYTES.reconcile(&mut self.owned_bytes, b);
        }
        StrandId(id as u32)
    }

    /// Commit the open sync block's era bump if execution has continued as
    /// the block's sync strand. Ran by every maintenance hook first; bumping
    /// lazily keeps a created-but-never-reached sync strand harmless.
    fn resync(&mut self, cur: StrandId) {
        let f = self.frames.last_mut().expect("frame stack never empty");
        if f.pending == Some(cur) {
            // The +1 was range-checked when the sync strand was created.
            f.era += 1;
            f.step = 0;
            f.pending = None;
        }
    }

    fn bump_step(f: &mut DFrame) -> u32 {
        f.step = f.step.checked_add(1).unwrap_or_else(|| {
            stint_faults::DetectorError::ResourceExhausted {
                resource: stint_faults::Resource::OmTags,
                limit: u32::MAX as u64,
                at_word: None,
            }
            .raise()
        });
        f.step
    }

    /// Create the sync strand for the sync block whose first spawn `cur` is
    /// executing (timestamped at the frame's *next* era; committed lazily).
    pub fn new_sync_strand(&mut self, cur: StrandId) -> StrandId {
        self.resync(cur);
        let f = self.frames.last().expect("frame stack never empty");
        if f.era >= MAX_ERA {
            stint_faults::DetectorError::ResourceExhausted {
                resource: stint_faults::Resource::OmTags,
                limit: MAX_ERA as u64,
                at_word: None,
            }
            .raise()
        }
        let mut path = Vec::with_capacity(f.base.len() + 1);
        path.extend_from_slice(&f.base);
        path.push(coord(f.era + 1, 0));
        let id = self.push(path.into_boxed_slice(), cur.0);
        self.frames.last_mut().expect("frame").pending = Some(id);
        id
    }

    /// Register a spawn executed by `cur`: the child takes the frame's
    /// current slot (its subtree extends it), the continuation takes the
    /// next slot, and a frame for the child's subcomputation opens.
    pub fn spawn(&mut self, cur: StrandId) -> SpawnStrands {
        self.resync(cur);
        let f = self.frames.last().expect("frame stack never empty");
        let mut child_base = Vec::with_capacity(f.base.len() + 1);
        child_base.extend_from_slice(&f.base);
        child_base.push(coord(f.era, f.step));
        let mut child_path = Vec::with_capacity(child_base.len() + 1);
        child_path.extend_from_slice(&child_base);
        child_path.push(coord(0, 0));
        let era = f.era;
        let next = Self::bump_step(self.frames.last_mut().expect("frame"));
        let f = self.frames.last().expect("frame");
        let mut cont_path = Vec::with_capacity(f.base.len() + 1);
        cont_path.extend_from_slice(&f.base);
        cont_path.push(coord(era, next));
        let child = self.push(child_path.into_boxed_slice(), cur.0);
        let continuation = self.push(cont_path.into_boxed_slice(), cur.0);
        self.frames.push(DFrame {
            base: child_base,
            era: 0,
            step: 0,
            pending: None,
        });
        SpawnStrands {
            child,
            continuation,
        }
    }

    /// A serial call by `cur` opens: its subtree occupies the frame's
    /// current slot with the serial tag (in series with every later slot of
    /// the era — the call implicitly syncs before returning).
    pub fn call_enter(&mut self, cur: StrandId) {
        self.resync(cur);
        let f = self.frames.last().expect("frame stack never empty");
        let mut base = Vec::with_capacity(f.base.len() + 1);
        base.extend_from_slice(&f.base);
        base.push(coord(f.era, f.step) | SERIAL);
        self.frames.push(DFrame {
            base,
            era: 0,
            step: 0,
            pending: None,
        });
    }

    /// The serial call returns (after its implicit sync): close its frame
    /// and advance the caller past the serial-tagged slot.
    pub fn call_exit(&mut self, cur: StrandId) {
        self.resync(cur);
        self.frames.pop();
        Self::bump_step(self.frames.last_mut().expect("caller frame remains"));
    }

    /// A spawned child's subcomputation finished (after its implicit sync):
    /// close its frame. The caller's step was already advanced at the spawn.
    pub fn child_return(&mut self, cur: StrandId) {
        self.resync(cur);
        self.frames.pop();
    }

    #[inline]
    fn cmp_ids(&self, a: StrandId, b: StrandId) -> Rel {
        OBS_QUERIES.incr();
        compare(self.arena.get(a.index()), self.arena.get(b.index()))
    }

    /// The strand that created `s` (`None` for the root, and on a view).
    #[inline]
    pub fn parent_of(&self, s: StrandId) -> Option<StrandId> {
        let p = *self.parents.get(s.index())?;
        (p != NO_PARENT).then_some(StrandId(p))
    }

    /// Snapshot the English/Hebrew orders into a [`FrozenReach`]
    /// (O(n log n · depth)). The ranks are identical to those an
    /// [`SpOrder`](crate::SpOrder) maintaining the same execution
    /// would freeze — the merged-report byte-identity across substrates
    /// rests on this.
    pub fn freeze(&self) -> FrozenReach {
        let n = self.parents.len();
        let rank_of = |heb: bool| -> Vec<u32> {
            let mut idx: Vec<u32> = (0..n as u32).collect();
            idx.sort_by(|&x, &y| {
                let (pa, pb) = (self.arena.get(x as usize), self.arena.get(y as usize));
                let before = if heb {
                    hebrew_less(pa, pb)
                } else {
                    english_less(pa, pb)
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
        FrozenReach::from_ranks(rank_of(false), rank_of(true)).with_parents(self.parents.clone())
    }
}

impl Reachability for DePaReach {
    #[inline]
    fn series(&self, a: StrandId, b: StrandId) -> bool {
        self.cmp_ids(a, b) == Rel::SeriesAb
    }
    #[inline]
    fn parallel(&self, a: StrandId, b: StrandId) -> bool {
        matches!(self.cmp_ids(a, b), Rel::ParallelAb | Rel::ParallelBa)
    }
    #[inline]
    fn left_of(&self, a: StrandId, b: StrandId) -> bool {
        // `left_of(a, b) ⟺ b <_H a`: either parallel with `a` sequentially
        // first, or series with `b` first (see `SpOrder::left_of`).
        matches!(self.cmp_ids(a, b), Rel::SeriesBa | Rel::ParallelAb)
    }
    #[inline]
    fn order_pair(&self, a: StrandId, b: StrandId) -> (bool, bool) {
        // Direct single-comparison override (the default would issue up to
        // three queries).
        match self.cmp_ids(a, b) {
            Rel::Equal | Rel::SeriesBa => (false, false),
            Rel::SeriesAb => (true, true),
            Rel::ParallelAb => (true, false),
            Rel::ParallelBa => (false, true),
        }
    }
    #[inline]
    fn parent_of(&self, s: StrandId) -> Option<StrandId> {
        DePaReach::parent_of(self, s)
    }
}

impl ReachMaint for DePaReach {
    fn init() -> (Self, StrandId) {
        DePaReach::new()
    }
    #[inline]
    fn new_sync_strand(&mut self, cur: StrandId) -> StrandId {
        DePaReach::new_sync_strand(self, cur)
    }
    #[inline]
    fn spawn(&mut self, cur: StrandId) -> SpawnStrands {
        DePaReach::spawn(self, cur)
    }
    #[inline]
    fn call_enter(&mut self, cur: StrandId) {
        DePaReach::call_enter(self, cur)
    }
    #[inline]
    fn call_exit(&mut self, cur: StrandId) {
        DePaReach::call_exit(self, cur)
    }
    #[inline]
    fn child_return(&mut self, cur: StrandId) {
        DePaReach::child_return(self, cur)
    }
    fn strand_count(&self) -> usize {
        DePaReach::strand_count(self)
    }
    fn heap_bytes(&self) -> u64 {
        DePaReach::heap_bytes(self)
    }
    fn freeze(&self) -> FrozenReach {
        DePaReach::freeze(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The spine's cap at cap−1 / cap / cap+1: `u32::MAX − 2` and
    /// `u32::MAX − 1` land in the last brick, the latter in its last slot;
    /// `u32::MAX`, the first id `push` refuses, would need one more brick.
    #[test]
    fn path_arena_cap_is_its_spine() {
        let arena = PathArena {
            spine: std::array::from_fn(|_| OnceLock::new()),
        };
        let last = arena.spine.len() - 1;
        assert_eq!(SLOTS, u32::MAX as usize);
        assert_eq!(locate(SLOTS - 2), (last, (1 << last) - 2));
        assert_eq!(locate(SLOTS - 1), (last, (1 << last) - 1));
        assert_eq!(locate(SLOTS).0, arena.spine.len());
    }

    /// Tiny executor mirroring the full maintenance protocol including call
    /// frames (the real executor lives in `stint-cilk`).
    struct Frame {
        sync_strand: Option<StrandId>,
    }
    struct Toy {
        r: DePaReach,
        cur: StrandId,
        frames: Vec<Frame>,
    }
    impl Toy {
        fn new() -> Self {
            let (r, root) = DePaReach::new();
            Toy {
                r,
                cur: root,
                frames: vec![Frame { sync_strand: None }],
            }
        }
        fn spawn(&mut self, f: impl FnOnce(&mut Toy)) {
            if self.frames.last().unwrap().sync_strand.is_none() {
                let j = self.r.new_sync_strand(self.cur);
                self.frames.last_mut().unwrap().sync_strand = Some(j);
            }
            let s = self.r.spawn(self.cur);
            self.frames.push(Frame { sync_strand: None });
            self.cur = s.child;
            f(self);
            self.sync();
            self.frames.pop();
            self.r.child_return(self.cur);
            self.cur = s.continuation;
        }
        fn sync(&mut self) {
            if let Some(j) = self.frames.last_mut().unwrap().sync_strand.take() {
                self.cur = j;
            }
        }
        fn call(&mut self, f: impl FnOnce(&mut Toy)) {
            self.r.call_enter(self.cur);
            self.frames.push(Frame { sync_strand: None });
            f(self);
            self.sync();
            self.frames.pop();
            self.r.call_exit(self.cur);
        }
    }

    #[test]
    fn spawn_makes_child_parallel_to_continuation() {
        let mut t = Toy::new();
        let mut child = None;
        t.spawn(|t| child = Some(t.cur));
        let child = child.unwrap();
        let cont = t.cur;
        assert!(t.r.parallel(child, cont));
        assert!(t.r.left_of(child, cont), "child is left of continuation");
        assert!(!t.r.left_of(cont, child));
        assert_eq!(t.r.order_pair(child, cont), (true, false));
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
        assert!(t.r.series(root, child));
        assert!(t.r.series(child, after));
        assert!(t.r.series(root, after));
        assert!(!t.r.parallel(child, after));
        assert!(t.r.left_of(after, child));
    }

    #[test]
    fn two_children_are_parallel() {
        let mut t = Toy::new();
        let (mut c1, mut c2) = (None, None);
        t.spawn(|t| c1 = Some(t.cur));
        t.spawn(|t| c2 = Some(t.cur));
        t.sync();
        let (c1, c2) = (c1.unwrap(), c2.unwrap());
        assert!(t.r.parallel(c1, c2));
        assert!(t.r.left_of(c1, c2), "earlier sibling is left of later");
        assert!(t.r.series(c1, t.cur));
        assert!(t.r.series(c2, t.cur));
    }

    #[test]
    fn nested_spawn_parallel_with_uncle_continuation() {
        // spawn { spawn {A}; B } ; C ; sync — A,B,C pairwise parallel.
        let mut t = Toy::new();
        let (mut a, mut b) = (None, None);
        t.spawn(|t| {
            t.spawn(|t| a = Some(t.cur));
            b = Some(t.cur);
        });
        let c = t.cur;
        t.sync();
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(t.r.parallel(a, b));
        assert!(t.r.parallel(a, c));
        assert!(t.r.parallel(b, c));
        assert!(t.r.series(a, t.cur));
        assert!(t.r.series(b, t.cur));
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
        assert!(t.r.series(a, b), "strands of block 1 precede block 2");
        assert!(t.r.series(a, t.cur));
        assert!(t.r.series(b, t.cur));
    }

    #[test]
    fn call_scopes_sync_to_callee() {
        // call { spawn A; } ; B — the callee's implicit sync (the serial
        // tag) orders A before B.
        let mut t = Toy::new();
        let mut a = None;
        t.call(|t| {
            t.spawn(|t| a = Some(t.cur));
        });
        let b = t.cur;
        let a = a.unwrap();
        assert!(t.r.series(a, b), "callee child must precede post-call code");
    }

    #[test]
    fn call_does_not_serialize_outstanding_children() {
        // spawn A; call { spawn B; } ; C — the call syncs only its own
        // children: A stays parallel with B and C.
        let mut t = Toy::new();
        let (mut a, mut b) = (None, None);
        t.spawn(|t| a = Some(t.cur));
        t.call(|t| {
            t.spawn(|t| b = Some(t.cur));
        });
        let c = t.cur;
        t.sync();
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(t.r.parallel(a, b), "call must not sync the caller's child");
        assert!(t.r.parallel(a, c));
        assert!(t.r.series(b, c), "callee synced before the caller resumed");
        assert!(t.r.series(a, t.cur));
        assert!(t.r.series(b, t.cur));
    }

    #[test]
    fn serial_calls_in_sequence_are_ordered() {
        let mut t = Toy::new();
        let (mut a, mut b) = (None, None);
        t.call(|t| t.spawn(|t| a = Some(t.cur)));
        t.call(|t| t.spawn(|t| b = Some(t.cur)));
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(t.r.series(a, b));
        assert!(t.r.series(b, t.cur));
    }

    #[test]
    fn spawned_subtree_parallel_with_later_call() {
        // spawn {A}; call { spawn B; } — A ∥ B (the spawn is outstanding
        // while the call runs).
        let mut t = Toy::new();
        let (mut a, mut b) = (None, None);
        t.spawn(|t| a = Some(t.cur));
        t.call(|t| t.spawn(|t| b = Some(t.cur)));
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(t.r.parallel(a, b));
        assert!(t.r.left_of(a, b));
    }

    #[test]
    fn sync_then_spawn_inside_callee() {
        // Deep sync chains inside a call frame exercise the lazy era bump
        // in a nested frame.
        let mut t = Toy::new();
        let mut ids = Vec::new();
        t.call(|t| {
            for _ in 0..20 {
                t.spawn(|t| ids.push(t.cur));
                t.sync();
                ids.push(t.cur);
            }
        });
        // A call returns *as* the callee's final strand; spawn+sync once to
        // reach a strictly later strand.
        t.spawn(|_| {});
        t.sync();
        ids.push(t.cur);
        for w in ids.windows(2) {
            assert!(t.r.series(w[0], w[1]), "{:?} ≺ {:?}", w[0], w[1]);
        }
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
            assert!(t.r.series(w[0], w[1]));
        }
        assert!(t.r.series(ids[0], *ids.last().unwrap()));
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
                assert!(t.r.parallel(kids[i], kids[j]));
                assert!(t.r.left_of(kids[i], kids[j]));
            }
            assert!(t.r.series(kids[i], t.cur));
        }
    }

    #[test]
    fn frozen_matches_live_queries() {
        let mut t = Toy::new();
        let (mut a, mut b) = (None, None);
        t.spawn(|t| {
            t.spawn(|t| a = Some(t.cur));
            b = Some(t.cur);
        });
        t.call(|t| t.spawn(|_| {}));
        t.sync();
        let frozen = t.r.freeze();
        assert_eq!(frozen.strand_count(), t.r.strand_count());
        let n = t.r.strand_count() as u32;
        for x in 0..n {
            for y in 0..n {
                let (x, y) = (StrandId(x), StrandId(y));
                assert_eq!(t.r.series(x, y), frozen.series(x, y), "series {x:?} {y:?}");
                assert_eq!(
                    t.r.parallel(x, y),
                    frozen.parallel(x, y),
                    "parallel {x:?} {y:?}"
                );
                assert_eq!(
                    t.r.left_of(x, y),
                    frozen.left_of(x, y),
                    "left_of {x:?} {y:?}"
                );
                assert_eq!(
                    t.r.order_pair(x, y),
                    frozen.order_pair(x, y),
                    "order_pair {x:?} {y:?}"
                );
            }
        }
        assert_eq!(frozen.parents(), Some(&t.r.parents[..]));
        let _ = (a.unwrap(), b.unwrap());
    }

    #[test]
    fn timestamps_are_immutable_and_stable() {
        // Hold raw pointers to early timestamps across enough pushes to
        // allocate several new bricks; the arena must never move them.
        let mut t = Toy::new();
        let p0 = t.r.timestamp(StrandId(0)).as_ptr();
        let v0: Vec<u64> = t.r.timestamp(StrandId(0)).to_vec();
        for _ in 0..200 {
            t.spawn(|_| {});
        }
        t.sync();
        assert_eq!(t.r.timestamp(StrandId(0)).as_ptr(), p0);
        assert_eq!(t.r.timestamp(StrandId(0)), &v0[..]);
    }

    #[test]
    fn query_path_is_shareable() {
        // &DePaReach is Sync: queries run concurrently from plain threads.
        let mut t = Toy::new();
        let mut kids = Vec::new();
        for _ in 0..8 {
            t.spawn(|t| kids.push(t.cur));
        }
        t.sync();
        let last = t.cur;
        let r = &t.r;
        let kids = &kids;
        std::thread::scope(|s| {
            for &k in kids {
                s.spawn(move || {
                    assert!(r.series(k, last));
                    for &k2 in kids {
                        assert_eq!(r.parallel(k, k2), k != k2);
                    }
                });
            }
        });
    }

    #[test]
    fn view_answers_hold_while_the_owner_publishes() {
        use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
        let mut t = Toy::new();
        for i in 0..40 {
            t.spawn(|t| t.call(|t| t.spawn(|_| {})));
            if i % 3 == 0 {
                t.sync();
            }
        }
        let n = t.r.strand_count() as u32;
        let pairs = || (0..n).flat_map(|x| (0..n).map(move |y| (StrandId(x), StrandId(y))));
        let all = |r: &dyn Reachability, (x, y): (StrandId, StrandId)| {
            (
                r.series(x, y),
                r.parallel(x, y),
                r.left_of(x, y),
                r.order_pair(x, y),
            )
        };
        let expected: Vec<_> = pairs().map(|p| all(&t.r, p)).collect();
        // `published` is the owner's release edge for the ids below it.
        let (stop, published) = (AtomicBool::new(false), AtomicU32::new(n));
        let fresh = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (view, expected) = (t.r.view(), &expected);
                    let (stop, published) = (&stop, &published);
                    s.spawn(move || {
                        let mut fresh = Vec::new();
                        loop {
                            let done = stop.load(Ordering::Acquire);
                            for (p, want) in pairs().zip(expected) {
                                assert_eq!(all(&view, p), *want, "{p:?}");
                            }
                            let k = published.load(Ordering::Acquire);
                            let p = (StrandId(k - 1), StrandId(k / 2));
                            fresh.push((p, all(&view, p)));
                            if done {
                                return fresh;
                            }
                        }
                    })
                })
                .collect();
            // ≥100k publications, from brick 7 or so into brick 16.
            for i in 0..50_000 {
                t.spawn(|_| {});
                if i % 1000 == 0 {
                    t.sync();
                }
                published.store(t.r.strand_count() as u32, Ordering::Release);
            }
            stop.store(true, Ordering::Release);
            readers
                .into_iter()
                .flat_map(|r| r.join().expect("reader"))
                .collect::<Vec<_>>()
        });
        assert!(t.r.strand_count() as u32 >= n + 100_000);
        assert!(locate(t.r.strand_count()).0 >= locate(n as usize).0 + 4);
        for (p, got) in fresh {
            assert_eq!(got, all(&t.r, p), "{p:?}");
        }
    }

    #[test]
    fn heap_bytes_grows_with_strands() {
        let mut t = Toy::new();
        let before = t.r.heap_bytes();
        for _ in 0..32 {
            t.spawn(|_| {});
        }
        t.sync();
        assert!(t.r.heap_bytes() > before);
    }
}
