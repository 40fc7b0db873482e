//! Strand-local memoization of reachability queries.
//!
//! Every query a detector issues while flushing a strand `s` has the shape
//! `(old, s)` where `old` is a stored accessor: `parallel(old, s)` decides
//! whether a conflict is a race, `left_of(s, old)` decides whether `s`
//! replaces the stored leftmost reader. A small direct-mapped cache keyed by
//! `old` answers a repeated question with one array probe instead of an
//! order-maintenance compare. How often a question repeats is a property of
//! the program (measured per flush on the repo benchmark's workloads,
//! EXPERIMENTS.md "Read-side probe-then-act (PR 22)"): where a strand
//! re-touches data that a handful of earlier strands own, a flush asks 30–80
//! questions about 1–7 distinct stored strands and 83–98% of them hit (the
//! suite kernels, `scatter_writes`) — within two points of what a memo
//! without conflict misses would hit. Where many strands read one shared
//! table (`scatter_reads`), a flush asks ≈111 questions about ≈101 distinct
//! stored strands: 6% hit, 9% could — no memo helps there, the cost left is
//! the cold question itself.
//!
//! The answers are only valid for a fixed current strand: the cache carries
//! a generation counter bumped by [`ReachCache::begin_strand`] whenever the
//! current strand changes, which invalidates every slot in O(1). Each of the
//! two answers is filled lazily on first demand — a write-side miss asks
//! only `parallel`, and computing `left_of` for it would double the miss
//! cost for nothing.

use crate::{Reachability, StrandId};

const SLOTS: usize = 64;

static OBS_CACHE_BYTES: stint_obs::Gauge = stint_obs::Gauge::new("sporder.reach_cache_bytes");

/// `Slot::have` bit: the `parallel` answer is present.
const HAVE_PARALLEL: u8 = 1;
/// `Slot::have` bit: the `left_of` answer is present.
const HAVE_LEFT_OF: u8 = 2;

#[derive(Clone, Copy)]
struct Slot {
    gen: u64,
    old: StrandId,
    have: u8,
    parallel: bool,
    left_of: bool,
}

const EMPTY_SLOT: Slot = Slot {
    gen: 0,
    old: StrandId(u32::MAX),
    have: 0,
    parallel: false,
    left_of: false,
};

/// Direct-mapped, generation-invalidated cache for `(old, current-strand)`
/// reachability queries. See the module docs for the validity argument.
pub struct ReachCache {
    cur: StrandId,
    gen: u64,
    slots: [Slot; SLOTS],
    /// Queries answered from a slot.
    pub hits: u64,
    /// Queries that walked the underlying [`Reachability`] structure.
    pub misses: u64,
    /// Strand-boundary invalidations.
    pub flushes: u64,
    /// Bytes last reported to the `sporder.reach_cache_bytes` gauge. The
    /// cache is embedded by value in its detector, so its footprint is its
    /// own `size_of` — reported at creation, returned at drop.
    owned_bytes: u64,
}

impl Default for ReachCache {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ReachCache {
    fn drop(&mut self) {
        OBS_CACHE_BYTES.reconcile(&mut self.owned_bytes, 0);
    }
}

impl ReachCache {
    pub fn new() -> Self {
        let mut c = ReachCache {
            cur: StrandId(u32::MAX),
            // Slots start at gen 0; the live generation starts at 1 so every
            // slot begins invalid.
            gen: 1,
            slots: [EMPTY_SLOT; SLOTS],
            hits: 0,
            misses: 0,
            flushes: 0,
            owned_bytes: 0,
        };
        OBS_CACHE_BYTES.reconcile(&mut c.owned_bytes, std::mem::size_of::<ReachCache>() as u64);
        c
    }

    /// The strand whose queries the cache currently memoizes.
    #[inline]
    pub fn current(&self) -> StrandId {
        self.cur
    }

    /// Point the cache at strand `s`. If the strand changed, every cached
    /// answer is invalidated (O(1): the generation counter moves past them).
    #[inline]
    pub fn begin_strand(&mut self, s: StrandId) {
        if s != self.cur {
            self.cur = s;
            self.gen += 1;
            self.flushes += 1;
        }
    }

    /// Memoized `reach.parallel(old, current)`.
    #[inline]
    pub fn parallel_with_cur(&mut self, old: StrandId, reach: &impl Reachability) -> bool {
        if old == self.cur {
            // Degenerate self-query — `parallel` is irreflexive, and stored
            // accessors usually *are* the current strand (a strand re-touching
            // its own data). The raw structures answer this with one compare;
            // don't burn a slot probe (or skew the hit/miss stats) on it.
            return false;
        }
        let gen = self.gen;
        let slot = &mut self.slots[old.0 as usize & (SLOTS - 1)];
        let live = slot.gen == gen && slot.old == old;
        if live && slot.have & HAVE_PARALLEL != 0 {
            self.hits += 1;
            return slot.parallel;
        }
        self.misses += 1;
        let parallel = reach.parallel(old, self.cur);
        if live {
            slot.have |= HAVE_PARALLEL;
            slot.parallel = parallel;
        } else {
            *slot = Slot {
                gen,
                old,
                have: HAVE_PARALLEL,
                parallel,
                left_of: false,
            };
        }
        parallel
    }

    /// Memoized `reach.left_of(current, old)`.
    #[inline]
    pub fn cur_left_of(&mut self, old: StrandId, reach: &impl Reachability) -> bool {
        if old == self.cur {
            // `left_of` is irreflexive too; see `parallel_with_cur`.
            return false;
        }
        let gen = self.gen;
        let slot = &mut self.slots[old.0 as usize & (SLOTS - 1)];
        let live = slot.gen == gen && slot.old == old;
        if live && slot.have & HAVE_LEFT_OF != 0 {
            self.hits += 1;
            return slot.left_of;
        }
        self.misses += 1;
        let left_of = reach.left_of(self.cur, old);
        if live {
            slot.have |= HAVE_LEFT_OF;
            slot.left_of = left_of;
        } else {
            *slot = Slot {
                gen,
                old,
                have: HAVE_LEFT_OF,
                parallel: false,
                left_of,
            };
        }
        left_of
    }

    /// Fraction of queries served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpOrder;

    /// Root spawns two children in one sync block, then syncs.
    fn fixture() -> (SpOrder, Vec<StrandId>) {
        let (mut sp, root) = SpOrder::new();
        let j = sp.new_sync_strand(root);
        let s1 = sp.spawn(root);
        let s2 = sp.spawn(s1.continuation);
        let all = vec![
            root,
            s1.child,
            s1.continuation,
            s2.child,
            s2.continuation,
            j,
        ];
        (sp, all)
    }

    #[test]
    fn cached_answers_match_uncached_for_all_pairs() {
        let (sp, all) = fixture();
        let mut cache = ReachCache::new();
        for &s in &all {
            cache.begin_strand(s);
            // Ask twice: the second round must be all hits with the same
            // answers.
            for _ in 0..2 {
                for &old in &all {
                    assert_eq!(
                        cache.parallel_with_cur(old, &sp),
                        sp.parallel(old, s),
                        "parallel({old:?}, {s:?})"
                    );
                    assert_eq!(
                        cache.cur_left_of(old, &sp),
                        sp.left_of(s, old),
                        "left_of({s:?}, {old:?})"
                    );
                }
            }
        }
        assert!(cache.hits > 0 && cache.misses > 0);
    }

    #[test]
    fn strand_change_invalidates() {
        let (sp, all) = fixture();
        let (a, b) = (all[1], all[2]); // child ∥ continuation
        let mut cache = ReachCache::new();
        cache.begin_strand(b);
        // b vs a: parallel.
        assert!(cache.parallel_with_cur(a, &sp));
        let flushes_before = cache.flushes;
        cache.begin_strand(all[5]); // the sync strand: serial after a
        assert_eq!(cache.flushes, flushes_before + 1);
        assert!(!cache.parallel_with_cur(a, &sp), "stale answer survived");
        // Re-pointing at the same strand must NOT flush.
        cache.begin_strand(all[5]);
        assert_eq!(cache.flushes, flushes_before + 1);
    }

    #[test]
    fn colliding_ids_evict_not_corrupt() {
        // Strand ids 64 apart map to the same slot; force a long chain so
        // such ids exist, then alternate queries between them.
        let (mut sp, root) = SpOrder::new();
        let mut cur = root;
        let mut ids = vec![root];
        for _ in 0..130 {
            let j = sp.new_sync_strand(cur);
            let s = sp.spawn(cur);
            ids.push(s.child);
            ids.push(s.continuation);
            cur = j;
            ids.push(j);
        }
        let a = ids[3];
        let b = *ids
            .iter()
            .find(|x| x.0 != a.0 && x.0 as usize % SLOTS == a.0 as usize % SLOTS)
            .expect("130 sync blocks produce colliding strand ids");
        let mut cache = ReachCache::new();
        cache.begin_strand(cur);
        for _ in 0..4 {
            assert_eq!(cache.parallel_with_cur(a, &sp), sp.parallel(a, cur));
            assert_eq!(cache.parallel_with_cur(b, &sp), sp.parallel(b, cur));
            assert_eq!(cache.cur_left_of(a, &sp), sp.left_of(cur, a));
            assert_eq!(cache.cur_left_of(b, &sp), sp.left_of(cur, b));
        }
    }

    #[test]
    fn hit_rate_reflects_traffic() {
        let (sp, all) = fixture();
        let mut cache = ReachCache::new();
        assert_eq!(cache.hit_rate(), 0.0);
        cache.begin_strand(all[5]);
        cache.parallel_with_cur(all[0], &sp); // miss
        cache.parallel_with_cur(all[0], &sp); // hit
        cache.cur_left_of(all[0], &sp); // miss (answers fill lazily)
        cache.cur_left_of(all[0], &sp); // hit
        assert_eq!(cache.misses, 2);
        assert_eq!(cache.hits, 2);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
    }
}
