//! The bit hashmap used for runtime coalescing (paper Section 3.2).
//!
//! While a strand executes, every access sets the bits of the 4-byte words it
//! touches; coalesced hooks set whole bit ranges at once with bit-level
//! parallelism. When the strand ends, [`BitShadow::extract_and_clear`]
//! returns the *maximal disjoint word intervals* covered by set bits — this
//! single step performs the paper's spatial coalescing (adjacent and
//! overlapping accesses merge), temporal coalescing and deduplication
//! (repeated accesses set the same bits once).
//!
//! The table is two-level: a [`PageMap`] from chunk number to a lazily
//! allocated chunk of 1024 `u64` bitmap groups (one chunk covers 2^16 words =
//! 256 KiB of program data). A dirty vector remembers every bitmap group that
//! became non-zero during the strand, so extraction and clearing cost
//! O(groups touched · log) — independent of how much of the table is
//! allocated. (The `log` is the sort that puts the intervals in address
//! order; the paper's "vectors … to remember indices" serve the same role.)

use crate::pagemap::PageMap;
use crate::WordIv;
use stint_faults::{DetectorError, Resource};

// Observability (no-ops costing one relaxed load while `stint-obs` is
// disabled).
static OBS_CHUNK_ALLOCS: stint_obs::Counter = stint_obs::Counter::new("shadow.chunk_allocs");
static OBS_BIT_BYTES: stint_obs::Gauge = stint_obs::Gauge::new("shadow.bit_bytes");

/// log2 of bitmap groups per chunk.
const GROUPS_PER_CHUNK_BITS: u32 = 10;
const GROUPS_PER_CHUNK: usize = 1 << GROUPS_PER_CHUNK_BITS;

/// Sentinel slot meaning "chunk could not be allocated; drop these bits".
///
/// Unlike [`crate::WordShadow`]'s sink page, a shared chunk would be
/// *unsound* here: [`BitShadow::extract_and_clear`] merges dirty groups into
/// intervals, and aliased groups from different chunks would merge into
/// intervals the program never accessed. Dropping the bits instead only ever
/// *under*-reports accesses past the exhaustion point — the documented
/// "sound up to that point" degradation.
const DROPPED: u32 = u32::MAX;

/// The runtime-coalescing bit table. One instance tracks one access kind
/// (the detector keeps separate read and write instances, as in the paper).
///
/// ```
/// use stint_shadow::BitShadow;
///
/// let mut bits = BitShadow::new();
/// bits.set_range(10, 14);  // words
/// bits.set_range(14, 20);  // adjacent: coalesces
/// bits.set_range(12, 13);  // duplicate: deduplicates
/// bits.set_range(100, 101);
/// let mut intervals = Vec::new();
/// bits.extract_and_clear(&mut intervals);
/// assert_eq!(intervals, [(10, 20), (100, 101)]);
/// assert!(bits.is_clear());
/// ```
pub struct BitShadow {
    map: PageMap,
    chunks: Vec<Box<[u64; GROUPS_PER_CHUNK]>>,
    /// Global bitmap-group ids (`word >> 6`) that became non-zero during the
    /// current strand, in first-touch order.
    dirty: Vec<u64>,
    /// Cache of the last (chunk_no, slot) to skip the map on sequential hits.
    last_chunk: (u64, u32),
    /// Maximum number of chunks that may be allocated (`u64::MAX` when
    /// unbounded; set by a budget or a `shadow-pages` fault).
    chunk_cap: u64,
    /// Allocation index that should fail with simulated OOM (`shadow-oom-at`
    /// fault; `u64::MAX` when disabled).
    oom_at: u64,
    /// First failure, recorded once; later unallocatable bits are dropped.
    exhausted: Option<DetectorError>,
    /// Bytes last reported to the `shadow.bit_bytes` gauge (zero while obs
    /// is disabled — `Gauge::reconcile` no-ops).
    owned_bytes: u64,
}

impl Default for BitShadow {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for BitShadow {
    fn drop(&mut self) {
        OBS_BIT_BYTES.reconcile(&mut self.owned_bytes, 0);
    }
}

/// Hook-side filter for redundant [`BitShadow::set_range`] calls.
///
/// Within one strand the bit table is monotone — bits only accumulate until
/// the next [`BitShadow::extract_and_clear`] — so a range covered by an
/// earlier `set_range` of the same strand can skip the table entirely. The
/// filter keeps the last two distinct set ranges (two, because inner loops
/// commonly alternate between two arrays); a recorded range that overlaps or
/// abuts the most recent entry merges into it, so sequential scans collapse
/// into one growing entry. Must be [`reset`](SetFilter::reset) whenever the
/// table is extracted or cleared.
#[derive(Clone, Copy, Debug)]
pub struct SetFilter {
    ranges: [(u64, u64); 2],
    /// `set_range` calls skipped because the range was already covered
    /// (cumulative over the whole run, for statistics).
    pub hits: u64,
}

impl Default for SetFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl SetFilter {
    pub const fn new() -> Self {
        SetFilter {
            // (1, 0) is empty: it covers nothing.
            ranges: [(1, 0); 2],
            hits: 0,
        }
    }

    /// True if every word of `[lo, hi)` is known to be set already (the
    /// caller may skip `set_range`).
    #[inline]
    pub fn covers(&mut self, lo: u64, hi: u64) -> bool {
        let hit = self.ranges.iter().any(|&(a, b)| lo >= a && hi <= b);
        self.hits += hit as u64;
        hit
    }

    /// Record that `[lo, hi)` has been set (callers pass non-empty ranges).
    #[inline]
    pub fn record(&mut self, lo: u64, hi: u64) {
        let (a, b) = self.ranges[0];
        if lo <= b && hi >= a {
            // Overlapping or abutting the newest entry: their union is fully
            // set, so grow it in place.
            self.ranges[0] = (a.min(lo), b.max(hi));
        } else {
            self.ranges[1] = self.ranges[0];
            self.ranges[0] = (lo, hi);
        }
    }

    /// Forget the ranges (the table was extracted or cleared).
    #[inline]
    pub fn reset(&mut self) {
        self.ranges = [(1, 0); 2];
    }
}

impl BitShadow {
    /// Create an empty table. Samples the installed fault plan (if any), so
    /// plans must be installed before the structures they should affect are
    /// built.
    pub fn new() -> Self {
        let mut b = Self::exact();
        if stint_faults::is_active() {
            if let Some(cap) = stint_faults::shadow_page_cap() {
                b.chunk_cap = cap;
            }
            if let Some(at) = stint_faults::shadow_oom_at() {
                b.oom_at = at;
            }
        }
        b
    }

    /// Create an empty table that no fault plan caps: it never drops a bit,
    /// for transforms that must be lossless whatever plan is installed.
    pub fn exact() -> Self {
        BitShadow {
            map: PageMap::new(),
            chunks: Vec::new(),
            dirty: Vec::new(),
            last_chunk: (u64::MAX, 0),
            chunk_cap: u64::MAX,
            oom_at: u64::MAX,
            exhausted: None,
            owned_bytes: 0,
        }
    }

    /// Number of chunks allocated (they persist across strands).
    pub fn chunks_allocated(&self) -> usize {
        self.chunks.len()
    }

    /// Total heap bytes owned: chunk bitmaps, the chunk directory vec, the
    /// dirty list and the first-level map.
    pub fn heap_bytes(&self) -> u64 {
        (self.chunks.len() * GROUPS_PER_CHUNK * 8
            + self.chunks.capacity() * std::mem::size_of::<Box<[u64; GROUPS_PER_CHUNK]>>()
            + self.dirty.capacity() * std::mem::size_of::<u64>()) as u64
            + self.map.heap_bytes()
    }

    /// Publish the live footprint to the `shadow.bit_bytes` gauge (no-op
    /// while obs is disabled; called from the cold allocation path and after
    /// dirty-list growth at extraction).
    #[inline]
    fn note_mem(&mut self) {
        let bytes = self.heap_bytes();
        OBS_BIT_BYTES.reconcile(&mut self.owned_bytes, bytes);
    }

    /// Cap chunk allocations at `chunks` (a `--max-shadow-mb` budget
    /// translated to chunks). A fault-injected cap, if tighter, wins.
    pub fn set_chunk_cap(&mut self, chunks: u64) {
        self.chunk_cap = self.chunk_cap.min(chunks);
    }

    /// Shadow bytes one chunk costs (for budget math).
    pub const BYTES_PER_CHUNK: u64 = (GROUPS_PER_CHUNK * 8) as u64;

    /// The first allocation failure, if any: bits for words past this point
    /// were dropped and the run's verdict is sound only up to it.
    pub fn exhausted(&self) -> Option<DetectorError> {
        self.exhausted.clone()
    }

    #[inline]
    fn chunk_slot(&mut self, chunk_no: u64) -> u32 {
        if self.last_chunk.0 == chunk_no {
            return self.last_chunk.1;
        }
        if let Some(slot) = self.map.get(chunk_no) {
            self.last_chunk = (chunk_no, slot);
            return slot;
        }
        self.chunk_slot_alloc(chunk_no)
    }

    /// Miss path: allocate the chunk, or record exhaustion and report
    /// [`DROPPED`] when the cap is reached or the simulated OOM fires.
    #[cold]
    fn chunk_slot_alloc(&mut self, chunk_no: u64) -> u32 {
        let allocs = self.chunks.len() as u64;
        let capped = allocs >= self.chunk_cap;
        if capped || allocs == self.oom_at {
            if self.exhausted.is_none() {
                stint_obs::event("fault.shadow_chunk_exhausted");
                self.exhausted = Some(DetectorError::ResourceExhausted {
                    resource: Resource::ShadowPages,
                    limit: allocs,
                    at_word: Some(chunk_no << (GROUPS_PER_CHUNK_BITS + 6)),
                });
            }
            self.last_chunk = (chunk_no, DROPPED);
            return DROPPED;
        }
        OBS_CHUNK_ALLOCS.incr();
        let chunks = &mut self.chunks;
        let slot = self.map.get_or_insert_with(chunk_no, || {
            let idx = chunks.len() as u32;
            let chunk = vec![0u64; GROUPS_PER_CHUNK].into_boxed_slice();
            chunks.push(chunk.try_into().expect("GROUPS_PER_CHUNK groups"));
            idx
        });
        self.last_chunk = (chunk_no, slot);
        self.note_mem();
        slot
    }

    /// Mark the words `[start, end)` as accessed in the current strand.
    #[inline(always)]
    pub fn set_range(&mut self, start: u64, end: u64) {
        if !self.set_in_lane(start, end) {
            self.set_range_slow(start, end);
        }
    }

    /// The *lane* nearly all hooks take: a non-empty range inside one bitmap
    /// group of the cached chunk, in a cell some earlier hook of the strand
    /// already made dirty, is set with one branch-free mask and one
    /// load/OR/store on the cell (the array chunk makes the masked index
    /// check-free). Returns false, having done nothing, for any other range;
    /// the caller then owes a [`set_range`](Self::set_range), whose general
    /// loop is kept out of line so hook sites stay small and their callers'
    /// loops keep values in registers.
    #[inline(always)]
    pub fn set_in_lane(&mut self, start: u64, end: u64) -> bool {
        let g = start >> 6;
        let (chunk_no, slot) = self.last_chunk;
        // A cached `DROPPED` slot never takes the lane: its bits are dropped.
        if start < end
            && g == (end - 1) >> 6
            && g >> GROUPS_PER_CHUNK_BITS == chunk_no
            && slot != DROPPED
        {
            let cell = &mut self.chunks[slot as usize][(g as usize) & (GROUPS_PER_CHUNK - 1)];
            if *cell != 0 {
                *cell |= (!0u64 >> (64 - (end - start))) << (start & 63);
                return true;
            }
        }
        false
    }

    /// The general loop: empty ranges, ranges over several groups, a group's
    /// first touch in the strand (the dirty list), a chunk other than the
    /// cached one (first-level map, allocation, exhaustion).
    #[cold]
    #[inline(never)]
    fn set_range_slow(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let first_group = start >> 6;
        let last_group = (end - 1) >> 6;
        for g in first_group..=last_group {
            let lo = if g == first_group { start & 63 } else { 0 };
            let hi = if g == last_group {
                ((end - 1) & 63) + 1
            } else {
                64
            };
            let mask = if hi - lo == 64 {
                !0u64
            } else {
                ((1u64 << (hi - lo)) - 1) << lo
            };
            let slot = self.chunk_slot(g >> GROUPS_PER_CHUNK_BITS);
            if slot == DROPPED {
                continue;
            }
            let cell = &mut self.chunks[slot as usize][(g as usize) & (GROUPS_PER_CHUNK - 1)];
            if *cell == 0 {
                self.dirty.push(g);
            }
            *cell |= mask;
        }
    }

    /// True if no bits are currently set.
    pub fn is_clear(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Extract the maximal disjoint intervals of set words in ascending
    /// address order, appending them to `out`, and clear the table for the
    /// next strand. Cost: O(d log d) in the number of dirty groups.
    pub fn extract_and_clear(&mut self, out: &mut Vec<WordIv>) {
        if self.dirty.is_empty() {
            return;
        }
        self.dirty.sort_unstable();
        let mut open: Option<WordIv> = None;
        // Take dirty out of self to appease the borrow checker.
        let dirty = std::mem::take(&mut self.dirty);
        for &g in &dirty {
            let slot = self.chunk_slot(g >> GROUPS_PER_CHUNK_BITS) as usize;
            let cell = &mut self.chunks[slot][(g as usize) & (GROUPS_PER_CHUNK - 1)];
            let mut bits = *cell;
            *cell = 0;
            debug_assert_ne!(bits, 0, "dirty group with no bits set");
            let base = g << 6;
            while bits != 0 {
                let tz = bits.trailing_zeros() as u64;
                let run = ((!(bits >> tz)).trailing_zeros() as u64).min(64 - tz);
                let (rs, re) = (base + tz, base + tz + run);
                match open {
                    Some((s, e)) if e == rs => open = Some((s, re)),
                    Some(iv) => {
                        out.push(iv);
                        open = Some((rs, re));
                    }
                    None => open = Some((rs, re)),
                }
                if tz + run >= 64 {
                    bits = 0;
                } else {
                    bits &= !(((1u64 << run) - 1) << tz);
                }
            }
        }
        self.dirty = dirty;
        self.dirty.clear();
        if let Some(iv) = open {
            out.push(iv);
        }
        if stint_obs::is_enabled() {
            // The dirty list may have grown this strand; extraction is the
            // per-strand boundary where re-measuring it is cheap.
            self.note_mem();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn extract(b: &mut BitShadow) -> Vec<WordIv> {
        let mut v = Vec::new();
        b.extract_and_clear(&mut v);
        v
    }

    /// Set `ranges` in order and check the extracted intervals against a
    /// `BTreeSet` of the words they cover.
    fn check_vs_reference(b: &mut BitShadow, ranges: &[WordIv]) {
        let mut reference = BTreeSet::new();
        for &(start, end) in ranges {
            b.set_range(start, end);
            reference.extend(start..end);
        }
        let mut want: Vec<WordIv> = Vec::new();
        for &w in &reference {
            match want.last_mut() {
                Some((_, e)) if *e == w => *e = w + 1,
                _ => want.push((w, w + 1)),
            }
        }
        assert_eq!(extract(b), want, "ranges {ranges:?}");
        assert!(b.is_clear());
    }

    #[test]
    fn single_word() {
        let mut b = BitShadow::new();
        b.set_range(5, 6);
        assert_eq!(extract(&mut b), vec![(5, 6)]);
        assert!(b.is_clear());
        assert_eq!(extract(&mut b), vec![]);
    }

    #[test]
    fn adjacent_accesses_coalesce() {
        let mut b = BitShadow::new();
        b.set_range(10, 12);
        b.set_range(12, 20);
        b.set_range(8, 10);
        assert_eq!(extract(&mut b), vec![(8, 20)]);
    }

    #[test]
    fn duplicates_dedup() {
        let mut b = BitShadow::new();
        for _ in 0..100 {
            b.set_range(100, 108);
        }
        assert_eq!(extract(&mut b), vec![(100, 108)]);
    }

    #[test]
    fn disjoint_stay_disjoint() {
        let mut b = BitShadow::new();
        b.set_range(0, 4);
        b.set_range(6, 8);
        b.set_range(100, 101);
        assert_eq!(extract(&mut b), vec![(0, 4), (6, 8), (100, 101)]);
    }

    #[test]
    fn run_across_group_boundary() {
        let mut b = BitShadow::new();
        b.set_range(60, 70); // spans groups 0 and 1
        assert_eq!(extract(&mut b), vec![(60, 70)]);
    }

    #[test]
    fn capped_chunks_drop_bits_soundly() {
        let mut b = BitShadow::new();
        b.set_chunk_cap(1);
        b.set_range(10, 20);
        assert!(b.exhausted().is_none());
        // A second chunk (words >= 2^16) cannot be allocated: its bits are
        // dropped, not aliased into an existing chunk.
        let far = 5u64 << 16;
        b.set_range(far, far + 8);
        let err = b.exhausted().expect("cap must be recorded");
        match err {
            DetectorError::ResourceExhausted {
                resource: Resource::ShadowPages,
                limit: 1,
                at_word: Some(at),
            } => assert_eq!(at, far),
            other => panic!("unexpected error {other:?}"),
        }
        // The tracked interval survives; the dropped one never appears.
        assert_eq!(extract(&mut b), vec![(10, 20)]);
        // Subsequent strands keep working within the allocated chunk.
        b.set_range(30, 32);
        b.set_range(far + 100, far + 200);
        assert_eq!(extract(&mut b), vec![(30, 32)]);
        assert_eq!(b.chunks_allocated(), 1);
    }

    /// The chunk cap at cap − 1, cap and cap + 1 chunks touched: only the
    /// chunk past the cap is dropped and recorded.
    #[test]
    fn chunk_cap_holds_at_its_boundary() {
        let chunk = 1u64 << (GROUPS_PER_CHUNK_BITS + 6);
        for touched in 2..=4u64 {
            let mut b = BitShadow::new();
            b.set_chunk_cap(3);
            for c in 0..touched {
                b.set_range(c * chunk + 1, c * chunk + 2);
            }
            let kept = touched.min(3);
            match b.exhausted() {
                None => assert!(touched <= 3),
                Some(DetectorError::ResourceExhausted {
                    resource: Resource::ShadowPages,
                    limit: 3,
                    at_word: Some(at),
                }) => assert_eq!((touched, at), (4, 3 * chunk)),
                Some(other) => panic!("unexpected error {other:?}"),
            }
            let want: Vec<WordIv> = (0..kept).map(|c| (c * chunk + 1, c * chunk + 2)).collect();
            assert_eq!(extract(&mut b), want);
            assert_eq!(b.chunks_allocated() as u64, kept);
        }
    }

    #[test]
    fn run_across_chunk_boundary() {
        let mut b = BitShadow::new();
        let boundary = 1u64 << 16;
        b.set_range(boundary - 3, boundary + 3);
        assert_eq!(extract(&mut b), vec![(boundary - 3, boundary + 3)]);
        assert_eq!(b.chunks_allocated(), 2);
    }

    #[test]
    fn full_group_runs() {
        let mut b = BitShadow::new();
        b.set_range(0, 256); // four full groups
        assert_eq!(extract(&mut b), vec![(0, 256)]);
    }

    #[test]
    fn interleaved_bits_in_one_group() {
        let mut b = BitShadow::new();
        // every other word in [0, 16)
        for w in (0..16).step_by(2) {
            b.set_range(w, w + 1);
        }
        let ivs = extract(&mut b);
        assert_eq!(ivs.len(), 8);
        for (i, iv) in ivs.iter().enumerate() {
            assert_eq!(*iv, (2 * i as u64, 2 * i as u64 + 1));
        }
    }

    #[test]
    fn clears_between_strands() {
        let mut b = BitShadow::new();
        b.set_range(0, 100);
        extract(&mut b);
        b.set_range(50, 60);
        assert_eq!(extract(&mut b), vec![(50, 60)]);
    }

    #[test]
    fn out_of_order_insertion_sorted_output() {
        let mut b = BitShadow::new();
        b.set_range(1000, 1001);
        b.set_range(5, 6);
        b.set_range(70, 90);
        assert_eq!(extract(&mut b), vec![(5, 6), (70, 90), (1000, 1001)]);
    }

    #[test]
    fn set_filter_covers_and_merges() {
        let mut f = SetFilter::new();
        assert!(!f.covers(0, 1), "empty filter covers nothing");
        f.record(10, 20);
        assert!(f.covers(10, 20));
        assert!(f.covers(12, 15));
        assert!(!f.covers(5, 12));
        assert!(!f.covers(15, 25));
        // Abutting range merges into one growing entry.
        f.record(20, 30);
        assert!(f.covers(10, 30));
        // A distant range occupies the second slot; both stay covered.
        f.record(100, 110);
        assert!(f.covers(100, 110));
        assert!(f.covers(10, 30));
        // A third distinct range evicts the oldest.
        f.record(200, 210);
        assert!(f.covers(200, 210));
        assert!(f.covers(100, 110));
        assert!(!f.covers(10, 30));
        assert!(f.hits >= 6);
        f.reset();
        assert!(!f.covers(200, 210));
    }

    #[test]
    fn set_filter_stays_on_after_all_miss_traffic() {
        let mut f = SetFilter::new();
        // All-miss traffic: every probe sees a fresh range.
        for i in 0..2 * 4096u64 {
            assert!(!f.covers(i * 100, i * 100 + 1));
            f.record(i * 100, i * 100 + 1);
        }
        assert_eq!(f.hits, 0);
        // The next recorded range is covered at once, and the hit counts.
        f.record(7, 90);
        assert!(f.covers(10, 80));
        assert_eq!(f.hits, 1);
    }

    /// Randomized: a `BitShadow` guarded by the filter extracts the same
    /// intervals as an unguarded one.
    #[test]
    fn set_filter_differential() {
        let mut state: u64 = 0x5E7F_17E8;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..100 {
            let mut plain = BitShadow::new();
            let mut filtered = BitShadow::new();
            let mut f = SetFilter::new();
            for _ in 0..(next() % 30 + 1) {
                let lo = next() % 300;
                let hi = lo + next() % 50 + 1;
                plain.set_range(lo, hi);
                if !f.covers(lo, hi) {
                    filtered.set_range(lo, hi);
                    f.record(lo, hi);
                }
            }
            assert_eq!(extract(&mut plain), extract(&mut filtered));
        }
    }

    /// Randomized differential test against a BTreeSet of words.
    #[test]
    fn random_vs_reference() {
        let mut state: u64 = 0xABCDEF;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..200 {
            let n = (next() % 40 + 1) as usize;
            let ranges: Vec<WordIv> = (0..n)
                .map(|_| {
                    let start = next() % 500;
                    (start, start + next() % 80 + 1)
                })
                .collect();
            check_vs_reference(&mut BitShadow::new(), &ranges);
        }
    }

    /// The edges of the inlined lane, each on a table whose chunk cache is
    /// cold (first range takes the general loop) and again warm.
    #[test]
    fn lane_edges_match_reference() {
        let chunk = 1u64 << (GROUPS_PER_CHUNK_BITS + 6);
        let alternating: Vec<WordIv> = (0..200)
            .map(|i| ((i % 2) * chunk + i, (i % 2) * chunk + i + 1))
            .collect();
        let cases: [&[WordIv]; 9] = [
            &[(64, 128)],                              // n = 64 fills a group exactly
            &[(0, 64), (64, 128), (128, 192)],         // three full groups coalesce
            &[(63, 65)],                               // 63|64 straddle: two groups
            &[(63, 64), (64, 65)],                     // the same words, one group each
            &[(chunk - 1, chunk), (chunk, chunk + 1)], // last word of a chunk + first of the next
            &[(chunk - 1, chunk + 1)],                 // one range across the chunk boundary
            &[(0, 0), (5, 5), (7, 3)],                 // empty: `end - 1` must not underflow
            &[(0, 0), (0, 1), (0, 0)],                 // empty on a warm cache
            &alternating,                              // two chunks take turns in the cache
        ];
        for ranges in cases {
            check_vs_reference(&mut BitShadow::new(), ranges);
            let mut warm = BitShadow::new();
            check_vs_reference(&mut warm, &[(1, 2), (chunk + 1, chunk + 2), (1, 2)]);
            check_vs_reference(&mut warm, ranges);
        }
    }

    /// Repeated one-group hits on a chunk that could not be allocated: the
    /// cached `DROPPED` slot never takes the lane, exhaustion is recorded
    /// once, and nothing of the chunk is ever extracted.
    #[test]
    fn dropped_chunk_stays_dropped_under_repeated_hits() {
        let far = 5u64 << 16;
        for by_fault in [false, true] {
            let mut b = BitShadow::new();
            if by_fault {
                // What a `shadow-oom-at=1` fault plan sets at construction
                // (plans are process-wide; unit tests share the process).
                b.oom_at = 1;
            } else {
                b.set_chunk_cap(1);
            }
            b.set_range(10, 20);
            for _ in 0..100 {
                b.set_range(far + 70, far + 71);
                b.set_range(far + 64, far + 128);
            }
            // A second dropped chunk does not overwrite the first failure.
            b.set_range(2 * far + 3, 2 * far + 4);
            b.set_range(far + 70, far + 71);
            match b.exhausted().expect("exhaustion must be recorded") {
                DetectorError::ResourceExhausted {
                    resource: Resource::ShadowPages,
                    limit: 1,
                    at_word: Some(at),
                } => assert_eq!(at, far),
                other => panic!("unexpected error {other:?}"),
            }
            assert_eq!(extract(&mut b), vec![(10, 20)]);
            // Next strand: still dropped, and the allocated chunk still works
            // (cold, then on the lane).
            b.set_range(far + 70, far + 71);
            b.set_range(30, 31);
            b.set_range(31, 32);
            assert_eq!(extract(&mut b), vec![(30, 32)]);
            assert_eq!(b.chunks_allocated(), 1);
        }
    }
}
