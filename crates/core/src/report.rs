//! Race reports.

use std::collections::BTreeMap;

use crate::witness::{Provenance, Witness};
use stint_sporder::{Reachability, StrandId};

/// The kind of conflicting pair, named `<previous access>-<current access>`.
/// Ordered as declared.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceKind {
    /// Both accesses are writes.
    WriteWrite,
    /// A recorded read races with the current write.
    ReadWrite,
    /// A recorded write races with the current read.
    WriteRead,
}

impl std::fmt::Display for RaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceKind::WriteWrite => write!(f, "write-write"),
            RaceKind::ReadWrite => write!(f, "read-write"),
            RaceKind::WriteRead => write!(f, "write-read"),
        }
    }
}

/// One detected determinacy race on a range of 4-byte words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Race {
    pub kind: RaceKind,
    /// First racy word of the region this report covers.
    pub word_lo: u64,
    /// One past the last racy word of the region.
    pub word_hi: u64,
    /// The previously recorded strand.
    pub prev: StrandId,
    /// The currently executing strand.
    pub cur: StrandId,
    /// Machine-checkable provenance, when capture was enabled (see
    /// [`crate::witness`]). Boxed: the common path carries no witness and
    /// pays one pointer.
    pub witness: Option<Box<Witness>>,
}

impl Race {
    /// A race record without a witness.
    pub fn new(kind: RaceKind, lo: u64, hi: u64, prev: StrandId, cur: StrandId) -> Race {
        Race {
            kind,
            word_lo: lo,
            word_hi: hi,
            prev,
            cur,
            witness: None,
        }
    }
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Saturating: word indices near `u64::MAX` in an adversarial trace
        // must render, not overflow the `* 4` in debug builds.
        write!(
            f,
            "{} race on words [{:#x}, {:#x}) (bytes [{:#x}, {:#x})): strand {} vs strand {}",
            self.kind,
            self.word_lo,
            self.word_hi,
            self.word_lo.saturating_mul(4),
            self.word_hi.saturating_mul(4),
            self.prev.0,
            self.cur.0
        )
    }
}

/// A sorted, coalesced set of `[lo, hi)` word intervals. A single wide
/// region race costs one entry, not `hi - lo` hash insertions.
#[derive(Clone, Debug, Default)]
struct IntervalSet {
    /// start → end (exclusive); intervals are disjoint and non-abutting.
    runs: BTreeMap<u64, u64>,
}

impl IntervalSet {
    fn insert(&mut self, mut lo: u64, mut hi: u64) {
        debug_assert!(lo < hi);
        // Merge with a predecessor that overlaps or abuts `lo`.
        if let Some((&plo, &phi)) = self.runs.range(..=lo).next_back() {
            if phi >= lo {
                if phi >= hi {
                    return; // already covered
                }
                lo = plo;
                hi = hi.max(phi);
                self.runs.remove(&plo);
            }
        }
        // Absorb successors the new run overlaps or abuts.
        while let Some((&nlo, &nhi)) = self.runs.range(lo..).next() {
            if nlo > hi {
                break;
            }
            hi = hi.max(nhi);
            self.runs.remove(&nlo);
        }
        self.runs.insert(lo, hi);
    }

    fn intervals(&self) -> Vec<(u64, u64)> {
        self.runs.iter().map(|(&l, &h)| (l, h)).collect()
    }

    fn words(&self) -> Vec<u64> {
        self.runs.iter().flat_map(|(&l, &h)| l..h).collect()
    }
}

/// Accumulated race reports.
///
/// Detailed [`Race`] records are kept up to a cap (racy programs can produce
/// enormous numbers of reports); the total count and the exact set of racy
/// words are always maintained. The racy word set is what the differential
/// tests compare across detector variants (variants may legally attribute
/// the same racy word to different kinds/pairs; see DESIGN.md §3). Words are
/// stored as coalesced sorted intervals, so region-heavy traces don't pay
/// per-word memory.
#[derive(Clone, Debug)]
pub struct RaceReport {
    races: Vec<Race>,
    cap: usize,
    /// Total race reports, including those beyond the cap.
    pub total: u64,
    racy: IntervalSet,
    /// Witness-capture state; `None` (the default) keeps every hook at one
    /// discriminant check.
    prov: Option<Box<Provenance>>,
}

/// Detailed race records a report keeps unless told otherwise; the total
/// and the racy words are complete past it.
pub(crate) const RACE_CAP: usize = 10_000;

impl Default for RaceReport {
    fn default() -> Self {
        Self::new(RACE_CAP)
    }
}

impl RaceReport {
    /// A report with no detail cap. The batch detector's per-shard reports
    /// use this so the merged, per-word-normalized report is a function of
    /// the trace alone — a cap would truncate differently at different
    /// shard counts and break the byte-identical merge guarantee.
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    pub fn new(cap: usize) -> Self {
        RaceReport {
            races: Vec::new(),
            cap,
            total: 0,
            racy: IntervalSet::default(),
            prov: None,
        }
    }

    /// Enable (or disable) witness capture. Off by default; when off the
    /// per-event cost is a single `Option` discriminant check.
    pub fn set_witness_capture(&mut self, on: bool) {
        if on {
            if self.prov.is_none() {
                self.prov = Some(Box::default());
            }
        } else {
            self.prov = None;
        }
    }

    /// The capture state, when enabled (event sequence + strand spans).
    pub fn provenance(&self) -> Option<&Provenance> {
        self.prov.as_deref()
    }

    /// Advance the event sequence number for one detector hook invocation.
    /// Detectors call this first in **every** hook (access and control), so
    /// live event ids equal trace indices. Inert when capture is off.
    #[inline]
    pub fn observe(&mut self, s: StrandId, access: bool) {
        if let Some(p) = self.prov.as_deref_mut() {
            p.on_event(s, access);
        }
    }

    /// Record a race covering the word range `[lo, hi)`.
    pub fn add(&mut self, kind: RaceKind, lo: u64, hi: u64, prev: StrandId, cur: StrandId) {
        self.push(Race::new(kind, lo, hi, prev, cur));
    }

    /// Record a pre-built [`Race`], keeping any witness it carries (the
    /// batch merge rebuilds reports from witnessed regions through this).
    pub fn add_race(&mut self, race: Race) {
        self.push(race);
    }

    /// Record a race, capturing a witness from the reachability source when
    /// capture is enabled. Detector race sites call this; `add` is the
    /// witness-less path for callers without a reachability handle.
    pub fn add_r<R: Reachability>(
        &mut self,
        kind: RaceKind,
        lo: u64,
        hi: u64,
        prev: StrandId,
        cur: StrandId,
        reach: &R,
    ) {
        let mut race = Race::new(kind, lo, hi, prev, cur);
        if let Some(p) = self.prov.as_deref() {
            // Only races that will be stored pay for witness construction.
            if self.races.len() < self.cap {
                race.witness = Some(Box::new(p.witness(reach, prev, cur)));
            }
        }
        self.push(race);
    }

    fn push(&mut self, race: Race) {
        debug_assert!(race.word_lo < race.word_hi);
        self.total += 1;
        self.racy.insert(race.word_lo, race.word_hi);
        if self.races.len() < self.cap {
            self.races.push(race);
        }
    }

    /// True if no race was detected.
    pub fn is_race_free(&self) -> bool {
        self.total == 0
    }

    /// True if detail records were dropped at the cap: `total` counts every
    /// race, `races()` holds only the first `cap`. Rendered and exported
    /// reports surface this explicitly.
    pub fn truncated(&self) -> bool {
        self.total > self.races.len() as u64
    }

    /// The recorded reports (capped).
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// The exact set of racy words, sorted.
    pub fn racy_words(&self) -> Vec<u64> {
        self.racy.words()
    }

    /// The racy words as maximal coalesced `[lo, hi)` intervals, sorted.
    pub fn racy_intervals(&self) -> Vec<(u64, u64)> {
        self.racy.intervals()
    }

    /// How many words are racy: the intervals' widths summed, none expanded.
    pub fn racy_word_count(&self) -> u64 {
        self.racy.runs.iter().map(|(&lo, &hi)| hi - lo).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_limits_details_not_totals() {
        let mut r = RaceReport::new(2);
        for i in 0..5 {
            r.add(RaceKind::WriteWrite, i, i + 1, StrandId(0), StrandId(1));
        }
        assert_eq!(r.races().len(), 2);
        assert_eq!(r.total, 5);
        assert_eq!(r.racy_words(), vec![0, 1, 2, 3, 4]);
        assert!(!r.is_race_free());
        assert!(r.truncated());
        let uncapped = RaceReport::default();
        assert!(!uncapped.truncated());
    }

    #[test]
    fn region_expands_to_words() {
        let mut r = RaceReport::default();
        r.add(RaceKind::WriteRead, 10, 14, StrandId(3), StrandId(7));
        assert_eq!(r.racy_words(), vec![10, 11, 12, 13]);
        assert_eq!(r.total, 1);
        let shown = format!("{}", r.races()[0]);
        assert!(shown.contains("write-read"));
        assert!(shown.contains("strand 3"));
        assert!(!r.truncated());
    }

    #[test]
    fn racy_words_coalesce_into_intervals() {
        let mut r = RaceReport::default();
        r.add(RaceKind::WriteWrite, 10, 20, StrandId(0), StrandId(1));
        r.add(RaceKind::WriteWrite, 30, 35, StrandId(0), StrandId(1));
        r.add(RaceKind::WriteWrite, 18, 30, StrandId(0), StrandId(1)); // bridges
        r.add(RaceKind::WriteWrite, 12, 13, StrandId(0), StrandId(1)); // covered
        r.add(RaceKind::WriteWrite, 35, 36, StrandId(0), StrandId(1)); // abuts
        assert_eq!(r.racy_intervals(), vec![(10, 36)]);
        assert_eq!(r.racy_words(), (10..36).collect::<Vec<u64>>());
        // A single wide region is one interval, not hi-lo entries.
        let mut wide = RaceReport::default();
        wide.add(RaceKind::WriteWrite, 0, 1 << 20, StrandId(0), StrandId(1));
        assert_eq!(wide.racy_intervals().len(), 1);
    }

    #[test]
    fn display_saturates_on_huge_word_addresses() {
        let r = Race::new(
            RaceKind::WriteWrite,
            u64::MAX - 8,
            u64::MAX - 4,
            StrandId(0),
            StrandId(1),
        );
        let shown = format!("{r}");
        assert!(shown.contains("write-write"), "{shown}");
    }
}
