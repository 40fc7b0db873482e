//! The vanilla word-granularity access history ("shadow memory").
//!
//! Maps every 4-byte word to a [`WordEntry`] holding the strand ids of the
//! word's *last writer* and *leftmost reader* — the two accessors that
//! suffice for sequential race detection of fork-join programs
//! [Feng & Leiserson 1997]. The structure is the paper's "optimized two-level
//! page-table-like hashmap": the word's page number indexes a [`PageMap`],
//! pages are dense arrays allocated lazily on first touch.
//!
//! The race-checking *logic* lives in the detector crate; this type only
//! provides fast per-word and per-range access to the entries, so that the
//! same storage serves the `vanilla`, `compiler` and `comp+rts` variants.
//!
//! # Allocation caps & graceful degradation
//!
//! Page allocation can be capped, either by a `shadow-pages`/`shadow-oom-at`
//! fault plan (sampled at construction) or by a real `--max-shadow-mb`
//! budget ([`WordShadow::set_page_cap`]). Once the cap is hit the structure
//! records a [`stint_faults::DetectorError`] and degrades *soundly*: words
//! on unallocatable pages are served from a single **sink page** whose
//! entries are reset to [`WordEntry::EMPTY`] at every handout. An
//! always-empty entry can never satisfy a race predicate, so the detector
//! reports no false races — it merely stops tracking the untrackable words,
//! which is exactly the "results sound up to that point" contract.

use crate::pagemap::PageMap;
use stint_faults::{DetectorError, Resource};

// Observability (no-ops costing one relaxed load while `stint-obs` is
// disabled). Pages are never freed individually — the whole structure drops
// at the end of a run — so allocation counters are the interesting signal.
static OBS_PAGE_ALLOCS: stint_obs::Counter = stint_obs::Counter::new("shadow.page_allocs");
static OBS_SINK_HANDOUTS: stint_obs::Counter = stint_obs::Counter::new("shadow.sink_handouts");
static OBS_WORD_BYTES: stint_obs::Gauge = stint_obs::Gauge::new("shadow.word_bytes");

/// Sentinel strand id meaning "no recorded accessor".
pub const NO_STRAND: u32 = u32::MAX;

/// Words per shadow page (16 KiB of program data per page).
const PAGE_BITS: u32 = 12;
const PAGE_WORDS: usize = 1 << PAGE_BITS;

/// Shadow state of one 4-byte word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WordEntry {
    /// Strand id of the last writer (sequential order), or [`NO_STRAND`].
    pub writer: u32,
    /// Strand id of the leftmost reader, or [`NO_STRAND`].
    pub reader: u32,
}

impl WordEntry {
    pub const EMPTY: WordEntry = WordEntry {
        writer: NO_STRAND,
        reader: NO_STRAND,
    };
}

/// Two-level word-granularity shadow memory.
pub struct WordShadow {
    map: PageMap,
    pages: Vec<Box<[WordEntry]>>,
    /// Last page resolved by the batched path: `(page_no, slot)`. Slots are
    /// stable (pages are only ever appended), so a hit is always valid; the
    /// sentinel slot `u32::MAX` marks the cache as empty.
    last_page: (u64, u32),
    /// Number of individual word operations served (for the paper's
    /// `hash ops` column in Figure 8).
    pub ops: u64,
    /// Page runs resolved by the batched API ([`WordShadow::with_page`]).
    pub batches: u64,
    /// Words covered by those page runs (`batched_words / batches` is the
    /// average batch length).
    pub batched_words: u64,
    /// Maximum number of real pages that may be allocated (`u64::MAX` when
    /// unbounded; set by a budget or a `shadow-pages` fault).
    page_cap: u64,
    /// Allocation index that should fail with simulated OOM (`shadow-oom-at`
    /// fault; `u64::MAX` when disabled).
    oom_at: u64,
    /// Real page allocations performed so far.
    allocs: u64,
    /// Slot of the sink page serving untrackable words, `u32::MAX` until the
    /// first failed allocation.
    sink: u32,
    /// First failure, recorded once; later allocations silently sink.
    exhausted: Option<DetectorError>,
    /// Bytes last reported to the `shadow.word_bytes` gauge (zero while obs
    /// is disabled — `Gauge::reconcile` no-ops).
    owned_bytes: u64,
}

impl Drop for WordShadow {
    fn drop(&mut self) {
        OBS_WORD_BYTES.reconcile(&mut self.owned_bytes, 0);
    }
}

impl Default for WordShadow {
    fn default() -> Self {
        Self::new()
    }
}

impl WordShadow {
    /// Create an empty shadow. Samples the installed fault plan (if any), so
    /// plans must be installed before the structures they should affect are
    /// built.
    pub fn new() -> Self {
        let mut s = WordShadow {
            map: PageMap::new(),
            pages: Vec::new(),
            last_page: (0, u32::MAX),
            ops: 0,
            batches: 0,
            batched_words: 0,
            page_cap: u64::MAX,
            oom_at: u64::MAX,
            allocs: 0,
            sink: u32::MAX,
            exhausted: None,
            owned_bytes: 0,
        };
        if stint_faults::is_active() {
            if let Some(cap) = stint_faults::shadow_page_cap() {
                s.page_cap = cap;
            }
            if let Some(at) = stint_faults::shadow_oom_at() {
                s.oom_at = at;
            }
        }
        s
    }

    /// Cap real page allocations at `pages` (a `--max-shadow-mb` budget
    /// translated to pages). A fault-injected cap, if tighter, wins.
    pub fn set_page_cap(&mut self, pages: u64) {
        self.page_cap = self.page_cap.min(pages);
    }

    /// Bytes of program memory one shadow page covers (for budget math).
    pub const BYTES_TRACKED_PER_PAGE: u64 = (PAGE_WORDS as u64) * 4;

    /// Shadow bytes one page costs (for budget math).
    pub const BYTES_PER_PAGE: u64 = (PAGE_WORDS * std::mem::size_of::<WordEntry>()) as u64;

    /// The first allocation failure, if any: the shadow stopped tracking new
    /// pages at that point and the run's verdict is sound only up to it.
    pub fn exhausted(&self) -> Option<DetectorError> {
        self.exhausted.clone()
    }

    /// Number of shadow pages allocated.
    pub fn pages_allocated(&self) -> usize {
        self.pages.len()
    }

    /// Bytes of shadow memory allocated (second level only).
    pub fn shadow_bytes(&self) -> usize {
        self.pages.len() * PAGE_WORDS * std::mem::size_of::<WordEntry>()
    }

    /// Total heap bytes owned: page data, the page directory vec and the
    /// first-level map.
    pub fn heap_bytes(&self) -> u64 {
        self.shadow_bytes() as u64
            + (self.pages.capacity() * std::mem::size_of::<Box<[WordEntry]>>()) as u64
            + self.map.heap_bytes()
    }

    #[inline]
    fn page_slot(&mut self, page_no: u64) -> usize {
        if let Some(slot) = self.map.get(page_no) {
            return slot as usize;
        }
        self.page_slot_alloc(page_no)
    }

    /// Miss path: allocate the page, or degrade to the sink when the cap is
    /// reached or the simulated OOM fires. Out of line — it runs once per
    /// page (or once per miss in the exhausted regime).
    #[cold]
    fn page_slot_alloc(&mut self, page_no: u64) -> usize {
        let capped = self.allocs >= self.page_cap;
        if capped || self.allocs == self.oom_at {
            if self.exhausted.is_none() {
                stint_obs::event("fault.shadow_page_exhausted");
                self.exhausted = Some(DetectorError::ResourceExhausted {
                    resource: Resource::ShadowPages,
                    limit: if capped { self.page_cap } else { self.allocs },
                    at_word: Some(page_no << PAGE_BITS),
                });
            }
            OBS_SINK_HANDOUTS.incr();
            // Note: the failed page is *not* registered in the map, so the
            // map stays bounded and reads via `get` keep reporting the page
            // as never touched.
            if self.sink == u32::MAX {
                self.sink = self.pages.len() as u32;
                self.pages
                    .push(vec![WordEntry::EMPTY; PAGE_WORDS].into_boxed_slice());
                self.note_mem();
            }
            return self.sink as usize;
        }
        self.allocs += 1;
        OBS_PAGE_ALLOCS.incr();
        let pages = &mut self.pages;
        let slot = self.map.get_or_insert_with(page_no, || {
            let idx = pages.len() as u32;
            pages.push(vec![WordEntry::EMPTY; PAGE_WORDS].into_boxed_slice());
            idx
        }) as usize;
        self.note_mem();
        slot
    }

    /// Publish the live footprint to the `shadow.word_bytes` gauge (no-op
    /// while obs is disabled; only called from the cold allocation path).
    #[inline]
    fn note_mem(&mut self) {
        let bytes = self.heap_bytes();
        OBS_WORD_BYTES.reconcile(&mut self.owned_bytes, bytes);
    }

    /// Mutable access to the entry of `word` (allocating its page lazily).
    /// Counts as one shadow operation.
    #[inline]
    pub fn entry_mut(&mut self, word: u64) -> &mut WordEntry {
        self.ops += 1;
        let slot = self.page_slot(word >> PAGE_BITS);
        let entry = &mut self.pages[slot][(word as usize) & (PAGE_WORDS - 1)];
        // Sink entries are reset at every handout: the sink aliases all
        // untrackable words, and a stale accessor would surface as a false
        // race. (`sink` is `u32::MAX` until exhaustion, so this is one
        // always-false compare on the healthy path.)
        if slot as u32 == self.sink {
            *entry = WordEntry::EMPTY;
        }
        entry
    }

    /// Like [`WordShadow::page_slot`], but checks the one-entry page cache
    /// first — consecutive intervals overwhelmingly land on the same shadow
    /// page, so most batched resolutions skip the [`PageMap`] probe entirely.
    #[inline]
    fn page_slot_cached(&mut self, page_no: u64) -> usize {
        let (cached_no, cached_slot) = self.last_page;
        if cached_no == page_no && cached_slot != u32::MAX {
            return cached_slot as usize;
        }
        let slot = self.page_slot(page_no);
        self.last_page = (page_no, slot as u32);
        slot
    }

    /// The batched-access primitive: resolve the page containing `start`
    /// *once* and hand `f` the contiguous entry slice covering
    /// `[start, min(end, page_end))`, together with the word number of its
    /// first element. Returns the first word *not* covered, so callers loop
    /// until the return value reaches `end`. Each covered word counts as one
    /// shadow operation.
    #[inline]
    pub fn with_page(
        &mut self,
        start: u64,
        end: u64,
        f: impl FnOnce(u64, &mut [WordEntry]),
    ) -> u64 {
        debug_assert!(start < end);
        let page_no = start >> PAGE_BITS;
        let run_end = ((page_no + 1) << PAGE_BITS).min(end);
        let covered = run_end - start;
        self.ops += covered;
        self.batches += 1;
        self.batched_words += covered;
        let slot = self.page_slot_cached(page_no);
        let base = (start as usize) & (PAGE_WORDS - 1);
        let slice = &mut self.pages[slot][base..base + covered as usize];
        if slot as u32 == self.sink {
            slice.fill(WordEntry::EMPTY);
        }
        f(start, slice);
        run_end
    }

    /// Apply `f` to the entry slice of every page run in `[start, end)`
    /// (this is what makes the *compiler* variant's coalesced hooks cheaper
    /// than per-word lookups). The second level is resolved once per
    /// up-to-4096-word page run (with a same-page fast path) and `f` iterates
    /// each page slice directly, so the per-word cost is a slice step instead
    /// of an index + mask + bounds check through `self.pages`.
    #[inline]
    pub fn process_range_on_page(
        &mut self,
        start: u64,
        end: u64,
        mut f: impl FnMut(u64, &mut [WordEntry]),
    ) {
        let mut w = start;
        while w < end {
            w = self.with_page(w, end, &mut f);
        }
    }

    /// Reset all entries in `[start, end)` to [`WordEntry::EMPTY`], touching
    /// only pages that already exist (used for allocator `free` integration;
    /// does not count as shadow operations). A range spanning more pages
    /// than are mapped — one `free` may name 2^62 words — visits the mapped
    /// pages instead of every page number in it.
    pub fn clear_range(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let (first, last) = (start >> PAGE_BITS, (end - 1) >> PAGE_BITS);
        let pages = &mut self.pages;
        let mut clear = |page_no: u64, slot: u32| {
            let lo = start.max(page_no << PAGE_BITS);
            let off = (lo as usize) & (PAGE_WORDS - 1);
            let n = (end - lo).min((PAGE_WORDS - off) as u64) as usize;
            pages[slot as usize][off..off + n].fill(WordEntry::EMPTY);
        };
        if last - first >= self.map.len() as u64 {
            for (page_no, slot) in self.map.iter() {
                if (first..=last).contains(&page_no) {
                    clear(page_no, slot);
                }
            }
        } else {
            for page_no in first..=last {
                if let Some(slot) = self.map.get(page_no) {
                    clear(page_no, slot);
                }
            }
        }
    }

    /// Read-only lookup; `None` if the page was never touched.
    pub fn get(&self, word: u64) -> Option<WordEntry> {
        let slot = self.map.get(word >> PAGE_BITS)?;
        Some(self.pages[slot as usize][(word as usize) & (PAGE_WORDS - 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_pages() {
        let mut s = WordShadow::new();
        assert_eq!(s.pages_allocated(), 0);
        assert_eq!(s.get(123), None);
        s.entry_mut(123).writer = 1;
        assert_eq!(s.pages_allocated(), 1);
        assert_eq!(
            s.get(123),
            Some(WordEntry {
                writer: 1,
                reader: NO_STRAND
            })
        );
        // Same page, different word: untouched entry is EMPTY.
        assert_eq!(s.get(124), Some(WordEntry::EMPTY));
        // Far-away word allocates a second page.
        s.entry_mut(1 << 40).reader = 2;
        assert_eq!(s.pages_allocated(), 2);
    }

    #[test]
    fn capped_pages_degrade_to_empty_sink() {
        let mut s = WordShadow::new();
        s.set_page_cap(2);
        // Two real pages fill the cap.
        s.entry_mut(0).writer = 1;
        s.entry_mut(1 << PAGE_BITS).writer = 2;
        assert!(s.exhausted().is_none());
        // Third page cannot be allocated: writes land in the sink...
        let w3 = 5u64 << PAGE_BITS;
        s.entry_mut(w3).writer = 3;
        let err = s.exhausted().expect("cap must be recorded");
        match err {
            DetectorError::ResourceExhausted {
                resource: Resource::ShadowPages,
                limit: 2,
                at_word: Some(at),
            } => assert_eq!(at, w3),
            other => panic!("unexpected error {other:?}"),
        }
        // ...and every sink handout is reset, so the stale writer can never
        // resurface as a false race — not at the same word, not at another
        // word aliasing the same sink page.
        assert_eq!(*s.entry_mut(w3), WordEntry::EMPTY);
        assert_eq!(*s.entry_mut((7 << PAGE_BITS) + 9), WordEntry::EMPTY);
        s.process_range_on_page(w3, w3 + 4, |_, entries| {
            assert!(entries.iter().all(|e| *e == WordEntry::EMPTY));
        });
        // Untrackable pages read as never touched; real pages kept their data.
        assert_eq!(s.get(w3), None);
        assert_eq!(s.get(0).unwrap().writer, 1);
        assert_eq!(s.get(1 << PAGE_BITS).unwrap().writer, 2);
    }

    #[test]
    fn clear_range_of_any_width_empties_exactly_its_words() {
        let touched = [0, 5, 4095, 4096, 1 << 20, (1 << 40) + 7, u64::MAX - 1];
        let mut s = WordShadow::new();
        for w in touched {
            s.entry_mut(w).writer = 1;
        }
        let kept = |s: &WordShadow| touched.map(|w| s.get(w).unwrap().writer == 1);
        // Fewer pages than are mapped: walked page by page.
        s.clear_range(1, 4096);
        assert_eq!(kept(&s), [true, false, false, true, true, true, true]);
        // More: only the mapped pages are visited.
        s.clear_range(4097, (1 << 40) + 8);
        assert_eq!(kept(&s), [true, false, false, true, false, false, true]);
        // The whole word space, up to its last page.
        s.clear_range(0, u64::MAX);
        assert_eq!(kept(&s), [false; 7]);
        assert_eq!(s.pages_allocated(), 5);
    }

    #[test]
    fn empty_range_is_noop() {
        let mut s = WordShadow::new();
        s.process_range_on_page(10, 10, |_, _| panic!("must not be called"));
        s.process_range_on_page(10, 5, |_, _| panic!("must not be called"));
        assert_eq!(s.ops, 0);
        assert_eq!(s.pages_allocated(), 0);
    }

    #[test]
    fn ops_counting() {
        let mut s = WordShadow::new();
        s.entry_mut(0);
        s.entry_mut(1);
        s.process_range_on_page(0, 10, |_, _| {});
        assert_eq!(s.ops, 12);
    }

    #[test]
    fn with_page_covers_single_page_run() {
        let mut s = WordShadow::new();
        let start = (1u64 << PAGE_BITS) - 3;
        // Run is clipped at the page boundary.
        let covered_to = s.with_page(start, start + 100, |base, entries| {
            assert_eq!(base, start);
            assert_eq!(entries.len(), 3);
            for e in entries.iter_mut() {
                e.writer = 7;
            }
        });
        assert_eq!(covered_to, 1 << PAGE_BITS);
        assert_eq!(s.batches, 1);
        assert_eq!(s.batched_words, 3);
        assert_eq!(s.ops, 3);
        for w in start..covered_to {
            assert_eq!(s.get(w).unwrap().writer, 7);
        }
    }

    #[test]
    fn process_range_visits_each_word_once_in_order() {
        let ranges = [
            (0u64, 10u64),
            ((1 << PAGE_BITS) - 5, (1 << PAGE_BITS) + 5),
            (100, 100 + 3 * (1 << PAGE_BITS)),
            ((1 << 40) - 1, (1 << 40) + 1),
        ];
        for &(start, end) in &ranges {
            let mut s = WordShadow::new();
            let mut visited = Vec::new();
            s.process_range_on_page(start, end, |base, entries| {
                for (i, e) in entries.iter_mut().enumerate() {
                    let w = base + i as u64;
                    visited.push(w);
                    e.writer = (w % 97) as u32;
                }
            });
            assert_eq!(visited, (start..end).collect::<Vec<_>>());
            assert_eq!(s.ops, end - start);
            assert_eq!(
                s.pages_allocated() as u64,
                ((end - 1) >> PAGE_BITS) - (start >> PAGE_BITS) + 1
            );
            for w in start..end {
                assert_eq!(s.get(w).unwrap().writer, (w % 97) as u32);
            }
            // The words either side, when on an allocated page, stay empty.
            assert!(s.get(end).is_none_or(|e| e == WordEntry::EMPTY));
        }
    }

    #[test]
    fn page_cache_skips_map_probe_but_stays_correct() {
        let mut s = WordShadow::new();
        // Two far-apart pages, alternating: the cache must never serve a
        // stale slot.
        for round in 0..10u64 {
            s.process_range_on_page(0, 4, |base, entries| {
                assert_eq!(base, 0);
                for e in entries.iter_mut() {
                    e.writer = round as u32;
                }
            });
            s.process_range_on_page(1 << 30, (1 << 30) + 4, |base, entries| {
                assert_eq!(base, 1 << 30);
                for e in entries.iter_mut() {
                    e.reader = round as u32;
                }
            });
        }
        assert_eq!(s.get(0).unwrap().writer, 9);
        assert_eq!(s.get(1 << 30).unwrap().reader, 9);
        assert_eq!(s.pages_allocated(), 2);
        assert_eq!(s.batches, 20);
    }
}
