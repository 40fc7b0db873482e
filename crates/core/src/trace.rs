//! Trace recording and replay.
//!
//! A [`TraceRecorder`] captures the hook stream of an execution — every
//! hook with its strand, plus strand boundaries — into a [`Trace`];
//! [`record`] returns that stream. A [`PortableTrace`] — what is saved and
//! replayed across processes — holds its *strand-coalesced* form instead
//! ([`Trace::coalesced`]): each strand's read runs, then its write runs, in
//! front of the strand end or free that closes them, the units every
//! interval detector flushes anyway, thousands where the hooks are
//! millions. [`replay`] feeds either form into any detector without
//! re-executing the program; both report the same racy words.
//!
//! This serves two purposes:
//!
//! * **benchmarking**: replaying the same trace into different detectors
//!   measures pure detection cost with the program's own work excluded and
//!   identical access streams guaranteed (used by the `replay` bench — a
//!   cleaner instrument than the paper's Figure 7 timers);
//! * **debugging/auditing**: a trace is a serializable witness of what the
//!   detector saw.

use std::io::{self, BufRead};

use crate::ctrace::{CompressedTraceReader, MAGIC_V2};
use crate::{Detector, StrandCoalescer};
use stint_sporder::{Reachability, StrandId};

/// Magic line of the v1 text trace format.
pub const MAGIC_V1: &str = "STINT-TRACE v1";

/// Which on-disk trace encoding a magic line announces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMagic {
    /// `STINT-TRACE v1` — text format, parsed fully into memory.
    V1,
    /// `STINT-TRACE v2` — compressed chunked format, streamable.
    V2,
    /// Anything else, including prefixes too short to decide. Feeding it to
    /// a loader yields a structured corrupt-trace error, never a panic.
    Unknown,
}

/// Classify a magic line, trailing whitespace ignored: the one place the
/// magic strings are matched.
fn classify(line: &str) -> TraceMagic {
    match line.trim_end() {
        MAGIC_V1 => TraceMagic::V1,
        MAGIC_V2 => TraceMagic::V2,
        _ => TraceMagic::Unknown,
    }
}

/// Classify a trace by the first line of `head`, a byte prefix already in
/// memory. Readers do not peek: [`open_any`] reads the line itself.
pub fn sniff_magic(head: &[u8]) -> TraceMagic {
    let line = head.split(|&b| b == b'\n').next().unwrap_or_default();
    std::str::from_utf8(line).map_or(TraceMagic::Unknown, classify)
}

/// Consume the magic line of `r` and classify it.
pub(crate) fn read_magic<R: BufRead>(r: &mut R) -> io::Result<TraceMagic> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    Ok(classify(&line))
}

/// A trace stream past its magic line, in the reader that line names.
pub enum OpenTrace<R> {
    /// A v1 text trace, parsed whole (not yet validated).
    V1(PortableTrace),
    /// A v2 stream, its header validated, positioned at the first chunk.
    V2(CompressedTraceReader<R>),
}

/// Read the magic line of a trace stream of either format and open it: the
/// one decision "magic → reader". [`PortableTrace::load_any`] and the batch
/// tier's entry both start here. Reading the line, not peeking at the first
/// buffer fill, decides the same for a reader that delivers one byte at a
/// time.
pub fn open_any<R: BufRead>(mut r: R) -> io::Result<OpenTrace<R>> {
    match read_magic(&mut r)? {
        TraceMagic::V1 => PortableTrace::load_v1_after_magic(r).map(OpenTrace::V1),
        TraceMagic::V2 => CompressedTraceReader::open_after_magic(r).map(OpenTrace::V2),
        TraceMagic::Unknown => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad magic: expected STINT-TRACE v1 or v2",
        )),
    }
}

/// One recorded instrumentation event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    Load,
    Store,
    LoadRange,
    StoreRange,
    Free,
    StrandEnd,
}

/// A recorded event: operation, strand, and byte range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub op: TraceOp,
    pub strand: StrandId,
    pub addr: usize,
    pub bytes: usize,
}

impl TraceEvent {
    /// The run or free of the words `[lo, hi)` as one event: a word-aligned
    /// byte range that `word_range` maps back to exactly those words; a
    /// strand end is the empty range at 0.
    #[inline]
    pub fn unit(op: TraceOp, strand: StrandId, lo: u64, hi: u64) -> TraceEvent {
        TraceEvent {
            op,
            strand,
            addr: (lo * 4) as usize,
            bytes: ((hi - lo) * 4) as usize,
        }
    }
}

/// A captured instrumentation stream: hooks, or the units they coalesce to.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// The strand-coalesced form of this stream: one [`StrandCoalescer`] fed
    /// every event ([`StrandCoalescer::feed`]), so each strand's accesses up
    /// to its next strand end or free become its sorted, disjoint read runs
    /// and then its write runs, as `LoadRange`/`StoreRange` units in front of
    /// that event. A stream that stops in mid-strand keeps the strand's runs
    /// at its end. Coalescing the result again changes nothing.
    ///
    /// Every detector finds the same racy words in both forms, and an
    /// interval detector the same intervals and races: it flushes exactly
    /// these runs at exactly these points. Race *totals* are not preserved
    /// for `vanilla` and `compiler`, which report once per word per access:
    /// a strand that writes a racy word twice is two races over its hooks
    /// and one over its unit. The tables are [`StrandCoalescer::exact`], so
    /// no installed fault plan drops an access from the result.
    ///
    /// In place: a strand's runs never outnumber the accesses they cover, so
    /// each unit overwrites an event already read. Beside the hooks,
    /// coalescing allocates only the coalescer's tables, freed on return; a
    /// second, growing unit buffer moved the heap addresses that a program
    /// recorded next in the same process records.
    pub fn coalesced(mut self) -> Trace {
        let last = self.events.last().map(|e| e.strand);
        let mut co = StrandCoalescer::exact();
        let events = &mut self.events;
        let mut kept = 0;
        for i in 0..events.len() {
            let e = events[i];
            co.feed(e, |u| {
                events[kept] = u;
                kept += 1;
            });
        }
        if let Some(s) = last {
            co.hand_out(s, |u| {
                events[kept] = u;
                kept += 1;
            });
        }
        debug_assert!(co.exhausted().is_none());
        events.truncate(kept);
        events.shrink_to_fit();
        self
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
    /// Total bytes covered by access events (with multiplicity).
    pub fn access_bytes(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| !matches!(e.op, TraceOp::Free | TraceOp::StrandEnd))
            .map(|e| e.bytes as u64)
            .sum()
    }
}

/// Detector that records instead of detecting.
#[derive(Default)]
pub struct TraceRecorder {
    pub trace: Trace,
}

impl TraceRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, op: TraceOp, strand: StrandId, addr: usize, bytes: usize) {
        self.trace.events.push(TraceEvent {
            op,
            strand,
            addr,
            bytes,
        });
    }
}

impl<R: Reachability> Detector<R> for TraceRecorder {
    fn load(&mut self, s: StrandId, addr: usize, bytes: usize, _: &R) {
        self.push(TraceOp::Load, s, addr, bytes);
    }
    fn store(&mut self, s: StrandId, addr: usize, bytes: usize, _: &R) {
        self.push(TraceOp::Store, s, addr, bytes);
    }
    fn load_range(&mut self, s: StrandId, addr: usize, bytes: usize, _: &R) {
        self.push(TraceOp::LoadRange, s, addr, bytes);
    }
    fn store_range(&mut self, s: StrandId, addr: usize, bytes: usize, _: &R) {
        self.push(TraceOp::StoreRange, s, addr, bytes);
    }
    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, _: &R) {
        self.push(TraceOp::Free, s, addr, bytes);
    }
    fn strand_end(&mut self, s: StrandId, _: &R) {
        self.push(TraceOp::StrandEnd, s, 0, 0);
    }
}

/// Record the hook stream of a fork-join program — one event per hook, the
/// stream a live detector with witnesses numbers — together with the
/// reachability structure its strands refer to.
pub fn record<P: crate::CilkProgram>(p: &mut P) -> (Trace, stint_sporder::SpOrder) {
    let (ex, _) = crate::run_with_detector(p, TraceRecorder::new());
    let reach = ex.reach;
    let trace = ex.det.trace;
    (trace, reach)
}

/// Feed a recorded trace into a detector, returning it.
pub fn replay<R: Reachability, D: Detector<R>>(trace: &Trace, reach: &R, mut det: D) -> D {
    let mut last = StrandId(0);
    for e in &trace.events {
        last = e.strand;
        match e.op {
            TraceOp::Load => det.load(e.strand, e.addr, e.bytes, reach),
            TraceOp::Store => det.store(e.strand, e.addr, e.bytes, reach),
            TraceOp::LoadRange => det.load_range(e.strand, e.addr, e.bytes, reach),
            TraceOp::StoreRange => det.store_range(e.strand, e.addr, e.bytes, reach),
            TraceOp::Free => det.free(e.strand, e.addr, e.bytes, reach),
            TraceOp::StrandEnd => det.strand_end(e.strand, reach),
        }
    }
    det.finish(last, reach);
    det
}

/// A self-contained, persistable trace: an instrumentation stream plus a
/// frozen snapshot of the reachability relation its strand ids refer to.
/// Saved traces can be replayed in a different process (`stint-cli trace`).
/// [`PortableTrace::record`] stores the strand-coalesced units
/// ([`Trace::coalesced`]); a hook stream — an older file, or [`record`]'s
/// output with its reachability frozen — is as valid a `PortableTrace`.
///
/// ```
/// use stint::{Cilk, CilkProgram, PortableTrace, RaceReport, StintDetector};
///
/// struct Racy;
/// impl CilkProgram for Racy {
///     fn run<C: Cilk>(&mut self, ctx: &mut C) {
///         ctx.spawn(|c| c.store(0x40, 8));
///         ctx.store(0x40, 8);
///         ctx.sync();
///     }
/// }
///
/// let trace = PortableTrace::record(&mut Racy);
/// let mut text = Vec::new();
/// trace.save(&mut text).unwrap();                  // serialize…
/// let back = PortableTrace::load_any(&text[..]).unwrap(); // …and restore
/// let det = back.replay(StintDetector::new(RaceReport::default()));
/// assert!(!det.report.is_race_free());
/// ```
#[derive(Clone, Debug)]
pub struct PortableTrace {
    pub trace: Trace,
    pub reach: stint_sporder::FrozenReach,
}

impl PortableTrace {
    /// Record a fork-join program into a portable trace of strand-coalesced
    /// units. The program runs under the plain recorder, and the hook stream
    /// is coalesced after it returned, so nothing allocated for coalescing
    /// sits between the program's own allocations.
    pub fn record<P: crate::CilkProgram>(p: &mut P) -> PortableTrace {
        let (hooks, reach) = record(p);
        PortableTrace {
            trace: hooks.coalesced(),
            reach: reach.freeze(),
        }
    }

    /// Replay into a detector.
    pub fn replay<D: Detector<stint_sporder::FrozenReach>>(&self, det: D) -> D {
        replay(&self.trace, &self.reach, det)
    }

    /// Check that the trace is internally consistent: every event's strand
    /// exists in the frozen reachability snapshot and no event's byte range
    /// overflows the address space. [`PortableTrace::load_any`] checks syntax
    /// only; a bit flip inside a strand or length field still parses, and
    /// replaying it would index out of bounds — callers that detect from
    /// untrusted files run this first.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.reach.strand_count();
        for (i, e) in self.trace.events.iter().enumerate() {
            if e.strand.index() >= n {
                return Err(format!(
                    "event {i}: strand {} out of range (trace has {n} strands)",
                    e.strand.0
                ));
            }
            // `word_range` rounds the end up via `addr + bytes + 3`, so the
            // whole rounded sum must fit.
            if e.addr
                .checked_add(e.bytes)
                .and_then(|s| s.checked_add(3))
                .is_none()
            {
                return Err(format!(
                    "event {i}: byte range {:#x}+{} overflows the address space",
                    e.addr, e.bytes
                ));
            }
        }
        Ok(())
    }

    /// Serialize to the simple line-oriented `STINT-TRACE v1` text format.
    /// Rank lines carry an optional third column — the strand's spawn parent
    /// (`-` for the root) — when the snapshot has lineage; older readers that
    /// only split off two fields still parse the two ranks.
    pub fn save<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "STINT-TRACE v1")?;
        writeln!(w, "strands {}", self.reach.strand_count())?;
        let parents = self.reach.parents();
        for (i, (e, h)) in self.reach.ranks().enumerate() {
            match parents.map(|p| p[i]) {
                Some(stint_sporder::NO_PARENT) => writeln!(w, "{e} {h} -")?,
                Some(p) => writeln!(w, "{e} {h} {p}")?,
                None => writeln!(w, "{e} {h}")?,
            }
        }
        writeln!(w, "events {}", self.trace.events.len())?;
        for ev in &self.trace.events {
            let op = match ev.op {
                TraceOp::Load => "l",
                TraceOp::Store => "s",
                TraceOp::LoadRange => "L",
                TraceOp::StoreRange => "S",
                TraceOp::Free => "f",
                TraceOp::StrandEnd => "e",
            };
            writeln!(w, "{op} {} {:#x} {}", ev.strand.0, ev.addr, ev.bytes)?;
        }
        Ok(())
    }

    /// Serialize to the compressed chunked `STINT-TRACE v2` binary format
    /// (see [`crate::ctrace`]) with at most `chunk_events` decoded events
    /// per chunk.
    pub fn save_compressed<W: std::io::Write>(
        &self,
        w: W,
        chunk_events: usize,
    ) -> std::io::Result<crate::ctrace::CompressStats> {
        crate::ctrace::save_compressed(self, w, chunk_events)
    }

    /// Parse either trace format whole ([`open_any`]): the v1 text format or
    /// the compressed chunked v2 format.
    pub fn load_any<R: BufRead>(r: R) -> io::Result<PortableTrace> {
        match open_any(r)? {
            OpenTrace::V1(pt) => Ok(pt),
            OpenTrace::V2(mut reader) => crate::ctrace::load_rest(&mut reader),
        }
    }

    fn load_v1_after_magic<R: BufRead>(r: R) -> io::Result<PortableTrace> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut lines = r.lines();
        let mut next = move || -> io::Result<String> {
            lines.next().ok_or_else(|| bad("unexpected end of trace"))?
        };
        let header = next()?;
        let n: usize = header
            .strip_prefix("strands ")
            .and_then(|x| x.trim().parse().ok())
            .ok_or_else(|| bad("bad strands header"))?;
        let mut eng = Vec::with_capacity(n);
        let mut heb = Vec::with_capacity(n);
        // Optional lineage column: all rank lines carry it or none do.
        let mut parents: Vec<u32> = Vec::new();
        for i in 0..n {
            let line = next()?;
            let mut it = line.split_whitespace();
            let e: u32 = it
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| bad("bad rank line"))?;
            let h: u32 = it
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| bad("bad rank line"))?;
            eng.push(e);
            heb.push(h);
            match it.next() {
                Some(tok) => {
                    if parents.len() != i {
                        return Err(bad("lineage column present on only some rank lines"));
                    }
                    let p: u32 = if tok == "-" {
                        stint_sporder::NO_PARENT
                    } else {
                        tok.parse().map_err(|_| bad("bad parent entry"))?
                    };
                    // Validate here rather than panic in `with_parents`:
                    // trace files are untrusted input.
                    if p != stint_sporder::NO_PARENT && (p as usize >= n || p as usize == i) {
                        return Err(bad("parent entry out of range or self-referential"));
                    }
                    parents.push(p);
                }
                None => {
                    if !parents.is_empty() {
                        return Err(bad("lineage column present on only some rank lines"));
                    }
                }
            }
        }
        let header = next()?;
        let m: usize = header
            .strip_prefix("events ")
            .and_then(|x| x.trim().parse().ok())
            .ok_or_else(|| bad("bad events header"))?;
        let mut events = Vec::with_capacity(m);
        for _ in 0..m {
            let line = next()?;
            let mut it = line.split_whitespace();
            let op = match it.next().ok_or_else(|| bad("bad event"))? {
                "l" => TraceOp::Load,
                "s" => TraceOp::Store,
                "L" => TraceOp::LoadRange,
                "S" => TraceOp::StoreRange,
                "f" => TraceOp::Free,
                "e" => TraceOp::StrandEnd,
                _ => return Err(bad("unknown event op")),
            };
            let strand: u32 = it
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| bad("bad event strand"))?;
            let addr_s = it.next().ok_or_else(|| bad("bad event addr"))?;
            let addr = usize::from_str_radix(addr_s.trim_start_matches("0x"), 16)
                .map_err(|_| bad("bad event addr"))?;
            let bytes: usize = it
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| bad("bad event bytes"))?;
            events.push(TraceEvent {
                op,
                strand: StrandId(strand),
                addr,
                bytes,
            });
        }
        let mut reach = stint_sporder::FrozenReach::from_ranks(eng, heb);
        if !parents.is_empty() {
            reach = reach.with_parents(parents);
        }
        Ok(PortableTrace {
            trace: Trace { events },
            reach,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cilk, CilkProgram, RaceReport, StintDetector, VanillaDetector};

    struct Racy;
    impl CilkProgram for Racy {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| {
                c.store_range(0x100, 64);
                c.free(0x140, 8);
            });
            ctx.load(0x120, 8);
            ctx.sync();
            ctx.store(0x100, 4);
        }
    }

    #[test]
    fn record_captures_all_events() {
        let (trace, _reach) = record(&mut Racy);
        let ops: Vec<TraceOp> = trace.events.iter().map(|e| e.op).collect();
        assert!(ops.contains(&TraceOp::StoreRange));
        assert!(ops.contains(&TraceOp::Load));
        assert!(ops.contains(&TraceOp::Free));
        assert!(ops.contains(&TraceOp::Store));
        // Strand boundaries recorded around the spawn/sync points.
        assert!(ops.iter().filter(|o| **o == TraceOp::StrandEnd).count() >= 3);
        assert_eq!(trace.access_bytes(), 64 + 8 + 4);
    }

    #[test]
    fn replay_reproduces_live_detection() {
        let (trace, reach) = record(&mut Racy);
        let live = crate::detect(&mut Racy, crate::Variant::Stint);
        let replayed = replay(&trace, &reach, StintDetector::new(RaceReport::default()));
        // Racy words are address-relative here (fixed literal addresses), so
        // they must agree exactly.
        assert_eq!(replayed.report.racy_words(), live.report.racy_words());
        assert!(!replayed.report.is_race_free());
        // And the word-level detector agrees too.
        let vr = replay(
            &trace,
            &reach,
            VanillaDetector::new(true, RaceReport::default()),
        );
        assert_eq!(vr.report.racy_words(), replayed.report.racy_words());
    }

    #[test]
    fn portable_trace_roundtrips_and_replays() {
        let pt = PortableTrace::record(&mut Racy);
        let mut buf = Vec::new();
        pt.save(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("STINT-TRACE v1"));
        assert_eq!(sniff_magic(&buf), TraceMagic::V1);
        assert_eq!(sniff_magic(b"STINT-TRACE v10\n"), TraceMagic::Unknown);
        let back = PortableTrace::load_any(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.trace.events, pt.trace.events);
        assert_eq!(back.reach, pt.reach);
        // Replaying the loaded trace matches the live run.
        let live = crate::detect(&mut Racy, crate::Variant::Stint);
        let d = back.replay(StintDetector::new(RaceReport::default()));
        assert_eq!(d.report.racy_words(), live.report.racy_words());
    }

    #[test]
    fn portable_trace_rejects_garbage() {
        for bad in [
            "",
            "WRONG MAGIC",
            "STINT-TRACE v1
strands x",
            "STINT-TRACE v1
strands 1
0 0
events 1
? 0 0x0 0",
        ] {
            assert!(
                PortableTrace::load_any(std::io::BufReader::new(bad.as_bytes())).is_err(),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn v1_lineage_column_roundtrips() {
        let pt = PortableTrace::record(&mut Racy);
        assert!(pt.reach.parents().is_some(), "live recording has lineage");
        let mut buf = Vec::new();
        pt.save(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(
            text.lines().nth(2).unwrap().ends_with(" -"),
            "root row: {text}"
        );
        let back = PortableTrace::load_any(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.reach.parents(), pt.reach.parents());
    }

    #[test]
    fn v1_legacy_two_column_ranks_still_parse() {
        let legacy = "STINT-TRACE v1\nstrands 2\n0 1\n1 0\nevents 1\ns 0 0x0 4\n";
        let pt = PortableTrace::load_any(std::io::BufReader::new(legacy.as_bytes())).unwrap();
        assert!(pt.reach.parents().is_none());
        assert_eq!(pt.trace.len(), 1);
        // A mixed lineage column is rejected, as are bad parent entries.
        for bad in [
            "STINT-TRACE v1\nstrands 2\n0 1 -\n1 0\nevents 0\n",
            "STINT-TRACE v1\nstrands 2\n0 1\n1 0 0\nevents 0\n",
            "STINT-TRACE v1\nstrands 2\n0 1 -\n1 0 7\nevents 0\n",
            "STINT-TRACE v1\nstrands 2\n0 1 -\n1 0 1\nevents 0\n",
        ] {
            assert!(
                PortableTrace::load_any(std::io::BufReader::new(bad.as_bytes())).is_err(),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn replay_is_repeatable() {
        let (trace, reach) = record(&mut Racy);
        let a = replay(&trace, &reach, StintDetector::new(RaceReport::default()));
        let b = replay(&trace, &reach, StintDetector::new(RaceReport::default()));
        assert_eq!(a.report.racy_words(), b.report.racy_words());
        assert_eq!(a.stats.treap.ops, b.stats.treap.ops);
        assert_eq!(a.stats.treap.visited, b.stats.treap.visited);
    }
}
