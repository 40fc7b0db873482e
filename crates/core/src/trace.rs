//! Trace recording and replay.
//!
//! A [`TraceRecorder`] captures the hook stream of an execution — every
//! hook with its strand, plus strand boundaries — into a [`Trace`];
//! [`record`] returns that stream. A [`PortableTrace`] — what is saved and
//! replayed across processes — holds its *strand-coalesced* form instead:
//! each strand's read runs, then its write runs, in front of the strand end
//! or free that closes them, the units every interval detector flushes
//! anyway, thousands where the hooks are millions. A [`UnitRecorder`]
//! coalesces each strand as it runs, as STINT does, so no hook is stored;
//! [`Trace::coalesced`] of the hook stream is its oracle. [`replay`] feeds
//! either form into any detector without re-executing the program; both
//! report the same racy words.
//!
//! A trace file of either format is read through [`open_any`], which opens
//! the [`RunSource`] its magic line names: [`crate::try_replay_runs`]
//! replays it one chunk of runs at a time, [`PortableTrace::load_any`]
//! collects it whole. Replaying one trace into different detectors measures
//! detection with the program's own work excluded (the `replay` bench), and
//! a saved trace is a witness of what the detector saw.

use std::borrow::Cow;
use std::io::{self, BufRead};

use crate::ctrace::{op_tag, CompressedTraceReader, RunSource, TraceRuns, MAGIC_V2, OP_TAGS};
use crate::wire;
use crate::{Detector, StrandCoalescer};
use stint_sporder::{Reachability, StrandId};

/// Magic line of the v1 text trace format.
pub const MAGIC_V1: &str = "STINT-TRACE v1";

/// The letter of each op in a v1 event line, at the op's tag ([`OP_TAGS`]).
const V1_LETTERS: &[u8; 6] = b"lsLSfe";

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

/// Read the magic line of a trace stream of either format and open the run
/// source it names: the one decision "magic → reader", where every reader
/// of a trace file starts, so no consumer asks which format it reads. A v1
/// trace is parsed whole and checked here ([`TraceRuns`]); a v2 stream's
/// header is validated and the reader left at its first chunk. Reading the
/// line, not peeking at the first buffer fill, decides the same for a reader
/// that delivers one byte at a time.
pub fn open_any<'r, R: BufRead + Send + 'r>(
    mut r: R,
) -> io::Result<Box<dyn RunSource + Send + 'r>> {
    Ok(match read_magic(&mut r)? {
        TraceMagic::V1 => {
            let pt = PortableTrace::load_v1_after_magic(r)?;
            Box::new(TraceRuns::new(Cow::Owned(pt))?)
        }
        TraceMagic::V2 => Box::new(CompressedTraceReader::open_after_magic(r)?),
        TraceMagic::Unknown => {
            let e = "bad magic: expected STINT-TRACE v1 or v2";
            return Err(io::Error::new(io::ErrorKind::InvalidData, e));
        }
    })
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
    /// The oracle of [`PortableTrace::record`]: a [`UnitRecorder`] run
    /// stores exactly the coalesced form of the same run's hook stream. In
    /// place: a strand's runs never outnumber the accesses they cover, so
    /// each unit overwrites an event already read.
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

/// Detector that records as STINT detects: every access goes into one
/// [`StrandCoalescer::exact`], on the inline lane sequential STINT's hooks
/// take, and a strand end or free appends the strand's runs, then itself,
/// to the trace ([`StrandCoalescer::feed`]). Only the units are stored, in
/// the order [`Trace::coalesced`] gives the same run's hook stream.
pub struct UnitRecorder {
    co: StrandCoalescer,
    pub trace: Trace,
    closes: u64,
}

impl Default for UnitRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl UnitRecorder {
    pub fn new() -> Self {
        UnitRecorder {
            co: StrandCoalescer::exact(),
            trace: Trace::default(),
            closes: 0,
        }
    }

    /// Hooks delivered so far — loads, stores, strand ends and frees: the
    /// length of the hook stream [`record`] stores of the same run.
    pub fn hooks(&self) -> u64 {
        self.co.hooks() + self.closes
    }

    /// A strand end or free: the strand's runs, then `e`, onto the trace.
    fn close(&mut self, e: TraceEvent) {
        self.closes += 1;
        let events = &mut self.trace.events;
        self.co.feed(e, |u| events.push(u));
    }
}

impl<R: Reachability> Detector<R> for UnitRecorder {
    #[inline(always)]
    fn load(&mut self, _: StrandId, addr: usize, bytes: usize, _: &R) {
        self.co.load(addr, bytes);
    }
    #[inline(always)]
    fn store(&mut self, _: StrandId, addr: usize, bytes: usize, _: &R) {
        self.co.store(addr, bytes);
    }
    fn free(&mut self, strand: StrandId, addr: usize, bytes: usize, _: &R) {
        self.close(TraceEvent {
            op: TraceOp::Free,
            strand,
            addr,
            bytes,
        });
    }
    fn strand_end(&mut self, s: StrandId, _: &R) {
        self.close(TraceEvent::unit(TraceOp::StrandEnd, s, 0, 0));
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
        dispatch(&mut det, e, reach);
    }
    det.finish(last, reach);
    det
}

/// One recorded event as the detector hook it stands for.
#[inline]
pub(crate) fn dispatch<R: Reachability, D: Detector<R>>(det: &mut D, e: &TraceEvent, reach: &R) {
    match e.op {
        TraceOp::Load => det.load(e.strand, e.addr, e.bytes, reach),
        TraceOp::Store => det.store(e.strand, e.addr, e.bytes, reach),
        TraceOp::LoadRange => det.load_range(e.strand, e.addr, e.bytes, reach),
        TraceOp::StoreRange => det.store_range(e.strand, e.addr, e.bytes, reach),
        TraceOp::Free => det.free(e.strand, e.addr, e.bytes, reach),
        TraceOp::StrandEnd => det.strand_end(e.strand, reach),
    }
}

/// A self-contained, persistable trace: an instrumentation stream plus a
/// frozen snapshot of the reachability relation its strand ids refer to.
/// Saved traces can be replayed in a different process (`stint-cli trace`).
/// [`PortableTrace::record`] stores the strand-coalesced units
/// ([`UnitRecorder`]); a hook stream — an older file, or [`record`]'s
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
    /// units: it runs under a [`UnitRecorder`], so each strand is coalesced
    /// as it closes and no hook is kept.
    pub fn record<P: crate::CilkProgram>(p: &mut P) -> PortableTrace {
        Self::record_counted(p).0
    }

    /// [`Self::record`], and the number of hooks the program delivered
    /// ([`UnitRecorder::hooks`]).
    pub fn record_counted<P: crate::CilkProgram>(p: &mut P) -> (PortableTrace, u64) {
        let (ex, _) = crate::run_with_detector(p, UnitRecorder::new());
        debug_assert!(ex.det.co.exhausted().is_none());
        let hooks = ex.det.hooks();
        let pt = PortableTrace {
            trace: ex.det.trace,
            reach: ex.reach.freeze(),
        };
        (pt, hooks)
    }

    /// Replay into a detector.
    pub fn replay<D: Detector<stint_sporder::FrozenReach>>(&self, det: D) -> D {
        replay(&self.trace, &self.reach, det)
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
            let op = V1_LETTERS[op_tag(ev.op) as usize] as char;
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

    /// Load a whole trace of either format, its bytes read first (so any
    /// reader will do): [`crate::ctrace::collect`] over [`open_any`], whose
    /// runs are checked (strand in the snapshot, range in the address space),
    /// so a loaded trace replays without indexing out of bounds.
    pub fn load_any<R: BufRead>(mut r: R) -> io::Result<PortableTrace> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let mut src = open_any(&bytes[..])?;
        crate::ctrace::collect(&mut *src)
    }

    fn load_v1_after_magic<R: BufRead>(r: R) -> io::Result<PortableTrace> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut lines = r.lines();
        let mut next = move || -> io::Result<String> {
            lines.next().ok_or_else(|| bad("unexpected end of trace"))?
        };
        let n: usize = field(next()?.strip_prefix("strands "), "bad strands header")?;
        // A count is only the file's claim: longer traces grow as lines come.
        let mut eng = Vec::with_capacity(wire::capacity::<u32>(n as u64));
        let mut heb = Vec::with_capacity(wire::capacity::<u32>(n as u64));
        // Optional lineage column: all rank lines carry it or none do.
        let mut parents: Vec<u32> = Vec::new();
        for i in 0..n {
            let line = next()?;
            let mut it = line.split_whitespace();
            let e: u32 = field(it.next(), "bad rank line")?;
            let h: u32 = field(it.next(), "bad rank line")?;
            eng.push(e);
            heb.push(h);
            // A column here needs one on every earlier line; none, on none.
            let tok = it.next();
            if parents.len() != if tok.is_some() { i } else { 0 } {
                return Err(bad("lineage column present on only some rank lines"));
            }
            if let Some(tok) = tok {
                let p: u32 = if tok == "-" {
                    stint_sporder::NO_PARENT
                } else {
                    tok.parse().map_err(|_| bad("bad parent entry"))?
                };
                // Validate here rather than panic in `with_parents`: trace
                // files are untrusted input.
                if p != stint_sporder::NO_PARENT && (p as usize >= n || p as usize == i) {
                    return Err(bad("parent entry out of range or self-referential"));
                }
                parents.push(p);
            }
        }
        let m: usize = field(next()?.strip_prefix("events "), "bad events header")?;
        let mut events = Vec::with_capacity(wire::capacity::<TraceEvent>(m as u64));
        for _ in 0..m {
            let line = next()?;
            let mut it = line.split_whitespace();
            let letter = it.next().ok_or_else(|| bad("bad event"))?;
            let tag = V1_LETTERS.iter().position(|&c| letter.as_bytes() == [c]);
            let op = OP_TAGS[tag.ok_or_else(|| bad("unknown event op"))?];
            let strand: u32 = field(it.next(), "bad event strand")?;
            let addr_s = it.next().ok_or_else(|| bad("bad event addr"))?;
            let addr = usize::from_str_radix(addr_s.trim_start_matches("0x"), 16)
                .map_err(|_| bad("bad event addr"))?;
            let bytes: usize = field(it.next(), "bad event bytes")?;
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

/// One field of a v1 line, trimmed and parsed; `what` is the error when it
/// is missing or does not parse.
fn field<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> io::Result<T> {
    let bad = || io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    tok.and_then(|x| x.trim().parse().ok()).ok_or_else(bad)
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
        let access = |e: &&TraceEvent| !matches!(e.op, TraceOp::Free | TraceOp::StrandEnd);
        let bytes: usize = trace.events.iter().filter(access).map(|e| e.bytes).sum();
        assert_eq!(bytes, 64 + 8 + 4);
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
