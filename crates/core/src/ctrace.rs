//! Compressed, chunked on-disk trace encoding (`STINT-TRACE v2`), and the
//! one interface every consumer reads a trace through.
//!
//! The v1 format spells every event as a text line (~12–16 bytes per
//! event). "Data Race Detection on Compressed Traces" (PAPERS.md) observes
//! that instrumentation streams are extremely regular — long runs of
//! same-strand, same-size accesses marching through memory at a constant
//! stride — and that detection can run *directly over the compressed form*.
//! A recorded trace ([`PortableTrace::record`]) is already each strand's
//! coalesced runs; the encoding still squeezes its frame, and a hook-level
//! stream — an older file, or [`crate::record`]'s — shrinks by its
//! run-length records:
//!
//! * **delta-coded addresses** — a zigzag varint delta against the previous
//!   run's last address, reset per chunk so chunks decode independently;
//! * **run-length records** — consecutive events with the same op, strand,
//!   byte count and address stride are one [`EventRun`] with a repeat count,
//!   stepped back to its exact events ([`EventRun::event`]), or, when it
//!   tiles memory (`stride == bytes`, word-aligned: only a hook stream has
//!   such runs), set on a coalescer as one range
//!   ([`EventRun::as_wholesale_range`]);
//! * **chunks** — at most `chunk_events` decoded events each, a run count and
//!   then the checked frame of [`crate::wire`] (length, FNV-1a checksum,
//!   payload), so a bit flip anywhere is caught before anything is decoded;
//! * **a partition index in the header** — word-space bounds plus a
//!   [`HIST_BUCKETS`]-bucket event histogram, computed at save time, so the
//!   batch tier plans load-balanced shards before reading any chunk. The
//!   header is one checked frame too, validated by
//!   [`CompressedTraceReader::open`].
//!
//! That reader and [`TraceRuns`] (an in-memory trace, or a v1 file parsed
//! whole, in the runs and chunks [`save_compressed`] would write) are the two
//! [`RunSource`]s: a header, then one checked chunk of runs at a time.
//! [`crate::open_any`] opens the one a magic line names, so replay, batch
//! detection and `trace info` hold one chunk of a trace, never all of it.

use std::borrow::Cow;
use std::io::{self, BufRead, Write};

use crate::trace::{read_magic, PortableTrace, Trace, TraceEvent, TraceMagic, TraceOp};
use crate::varint;
pub use crate::wire::fnv1a;
use crate::wire::{self, FrameError};
use stint_sporder::{FrozenReach, StrandId};

/// Magic first line of the compressed format (text, so `file`/`head` can
/// identify a trace; everything after the newline is binary).
pub const MAGIC_V2: &str = "STINT-TRACE v2";

/// Buckets in the header's event histogram (the partition index).
pub const HIST_BUCKETS: usize = 256;

/// Default maximum decoded events per chunk.
pub const DEFAULT_CHUNK_EVENTS: usize = 4096;

/// Largest header or chunk payload a reader accepts.
pub const MAX_FRAME: u64 = 64 << 20;

fn bad(m: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, m.into())
}

// ----------------------------------------------------------------- zigzag

fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    varint::put(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn get_zigzag(buf: &[u8], pos: &mut usize) -> io::Result<i64> {
    let v = varint::get(buf, pos)?;
    Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
}

fn is_permutation(v: &[u32]) -> bool {
    let n = v.len();
    let mut seen = vec![false; n];
    v.iter().all(|&r| {
        let i = r as usize;
        i < n && !std::mem::replace(&mut seen[i], true)
    })
}

// ------------------------------------------------------------------- runs

/// Each op at its tag: a run's v2 tag, and its v1 letter's place in
/// `trace::V1_LETTERS`.
pub(crate) const OP_TAGS: [TraceOp; 6] = [
    TraceOp::Load,
    TraceOp::Store,
    TraceOp::LoadRange,
    TraceOp::StoreRange,
    TraceOp::Free,
    TraceOp::StrandEnd,
];

pub(crate) fn op_tag(op: TraceOp) -> u8 {
    OP_TAGS.iter().position(|&o| o == op).unwrap_or(0) as u8
}

/// A run-length record: `count` events `(op, strand, addr + i*stride,
/// bytes)` for `i` in `0..count`. Single events are runs with `count == 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRun {
    pub op: TraceOp,
    pub strand: StrandId,
    pub addr: usize,
    pub bytes: usize,
    pub count: u64,
    /// Signed address stride between consecutive events of the run
    /// (meaningful only when `count > 1`).
    pub stride: i64,
}

impl EventRun {
    fn single(e: &TraceEvent) -> EventRun {
        EventRun {
            op: e.op,
            strand: e.strand,
            addr: e.addr,
            bytes: e.bytes,
            count: 1,
            stride: 0,
        }
    }

    /// Address of the run's last event.
    fn last_addr(&self) -> usize {
        (self.addr as i64).wrapping_add(self.stride.wrapping_mul(self.count as i64 - 1)) as usize
    }

    /// When the run tiles memory contiguously (`stride == bytes`, both
    /// word-aligned), its events set exactly the same shadow words as one
    /// coalesced range access over the union — so an interval detector can
    /// consume the whole run as a single `load_range`/`store_range`.
    /// Returns the `(op, addr, total_bytes)` of that coalesced access.
    pub fn as_wholesale_range(&self) -> Option<(TraceOp, usize, usize)> {
        if self.count < 2 || self.bytes == 0 {
            return None;
        }
        let op = match self.op {
            TraceOp::Load | TraceOp::LoadRange => TraceOp::LoadRange,
            TraceOp::Store | TraceOp::StoreRange => TraceOp::StoreRange,
            _ => return None,
        };
        if self.stride != self.bytes as i64
            || !self.addr.is_multiple_of(4)
            || !self.bytes.is_multiple_of(4)
        {
            return None;
        }
        let total = self.bytes.checked_mul(self.count as usize)?;
        self.addr.checked_add(total)?;
        Some((op, self.addr, total))
    }

    /// The run's first event.
    pub fn first(&self) -> TraceEvent {
        TraceEvent {
            op: self.op,
            strand: self.strand,
            addr: self.addr,
            bytes: self.bytes,
        }
    }

    /// The run's `i`-th event: the one way a run is stepped.
    #[inline]
    pub fn event(&self, i: u64) -> TraceEvent {
        let step = self.stride.wrapping_mul(i as i64);
        TraceEvent {
            addr: (self.addr as i64).wrapping_add(step) as usize,
            ..self.first()
        }
    }
}

/// The one validity check of a [`RunSource`]'s runs: each names a strand the
/// header has, and every address it expands to, plus `word_range`'s rounding
/// slack, stays inside the address space. `say` words the first failure from
/// its index, the run, and whether its strand (else its range) is at fault.
fn check_runs(
    runs: impl IntoIterator<Item = EventRun>,
    strands: usize,
    say: impl Fn(usize, &EventRun, bool) -> String,
) -> io::Result<()> {
    for (i, run) in runs.into_iter().enumerate() {
        let first = run.addr as i128;
        let last = first + (run.stride as i128) * (run.count as i128 - 1);
        let end = first.max(last) + run.bytes as i128 + 3;
        let bad_strand = run.strand.index() >= strands;
        if bad_strand || first.min(last) < 0 || end > usize::MAX as i128 {
            return Err(bad(say(i, &run, bad_strand)));
        }
    }
    Ok(())
}

/// Greedy run-length construction, one chunk at a time: consecutive access
/// events with the same op, strand, and byte count at a constant stride
/// collapse into one run; `Free` and `StrandEnd` never coalesce. Builds into
/// `out` (cleared first) the runs of the front of `events`, closing the
/// chunk at the first run that starts once `chunk_events` events are in,
/// and returns the events taken. A chunk never splits a run, so a trace's
/// runs are the same at every chunk size.
fn build_chunk(events: &[TraceEvent], chunk_events: usize, out: &mut Vec<EventRun>) -> usize {
    out.clear();
    let mut taken = 0;
    for e in events {
        let coalescable = !matches!(e.op, TraceOp::Free | TraceOp::StrandEnd);
        if coalescable {
            if let Some(r) = out.last_mut() {
                if r.op == e.op && r.strand == e.strand && r.bytes == e.bytes {
                    let delta = (e.addr as i64).wrapping_sub(r.last_addr() as i64);
                    if r.count == 1 {
                        r.stride = delta;
                        r.count = 2;
                        taken += 1;
                        continue;
                    } else if delta == r.stride {
                        r.count += 1;
                        taken += 1;
                        continue;
                    }
                }
            }
        }
        if taken >= chunk_events {
            break;
        }
        out.push(EventRun::single(e));
        taken += 1;
    }
    taken
}

// ------------------------------------------------------------------ write

/// Per-save summary returned by [`save_compressed`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CompressStats {
    pub events: u64,
    pub runs: u64,
    pub chunks: u64,
    /// Total bytes written, including the magic line and all framing.
    pub bytes: u64,
}

fn encode_run(payload: &mut Vec<u8>, r: &EventRun, prev_addr: &mut usize) {
    payload.push(op_tag(r.op));
    varint::put(payload, u64::from(r.strand.0));
    if r.op != TraceOp::StrandEnd {
        put_zigzag(payload, (r.addr as i64).wrapping_sub(*prev_addr as i64));
        varint::put(payload, r.bytes as u64);
        if !matches!(r.op, TraceOp::Free) {
            varint::put(payload, r.count);
            if r.count > 1 {
                put_zigzag(payload, r.stride);
            }
        }
        *prev_addr = r.last_addr();
    }
}

/// Word-space bounds and the bucketed access-event histogram used as the
/// partition index: `bounds` is `(word_lo, word_hi)` over every access/free
/// event, `hist[b]` counts events whose first word falls in bucket `b`.
pub fn partition_index(events: &[TraceEvent]) -> (Option<(u64, u64)>, Vec<u64>) {
    let mut bounds: Option<(u64, u64)> = None;
    for e in events {
        if e.op == TraceOp::StrandEnd {
            continue;
        }
        let (lo, hi) = stint_cilk::word_range(e.addr, e.bytes);
        bounds = Some(match bounds {
            None => (lo, hi),
            Some((a, b)) => (a.min(lo), b.max(hi)),
        });
    }
    let mut hist = vec![0u64; HIST_BUCKETS];
    if let Some((lo, hi)) = bounds {
        let bw = bucket_width(lo, hi);
        for e in events {
            if e.op == TraceOp::StrandEnd {
                continue;
            }
            let (wlo, _) = stint_cilk::word_range(e.addr, e.bytes);
            let b = ((wlo - lo) / bw).min(HIST_BUCKETS as u64 - 1) as usize;
            hist[b] += 1;
        }
    }
    (bounds, hist)
}

/// Width of one histogram bucket over `[lo, hi)` (at least 1 word).
pub fn bucket_width(lo: u64, hi: u64) -> u64 {
    ((hi - lo).div_ceil(HIST_BUCKETS as u64)).max(1)
}

/// Serialize a portable trace in the compressed chunked `STINT-TRACE v2`
/// format, with at most `chunk_events` decoded events per chunk.
pub fn save_compressed<W: Write>(
    pt: &PortableTrace,
    mut w: W,
    chunk_events: usize,
) -> io::Result<CompressStats> {
    let chunk_events = chunk_events.max(1);
    let mut stats = CompressStats {
        events: pt.trace.len() as u64,
        ..Default::default()
    };
    writeln!(w, "{MAGIC_V2}")?;
    stats.bytes += MAGIC_V2.len() as u64 + 1;

    // Header: ranks, event count, partition index; checksummed as a block.
    let mut header = Vec::new();
    varint::put(&mut header, pt.reach.strand_count() as u64);
    for (e, h) in pt.reach.ranks() {
        varint::put(&mut header, u64::from(e));
        varint::put(&mut header, u64::from(h));
    }
    varint::put(&mut header, pt.trace.len() as u64);
    let (bounds, hist) = partition_index(&pt.trace.events);
    let (lo, hi) = bounds.unwrap_or((0, 0));
    varint::put(&mut header, lo);
    varint::put(&mut header, hi - lo);
    varint::put(&mut header, hist.len() as u64);
    for &c in &hist {
        varint::put(&mut header, c);
    }
    // Optional lineage block (spawn parents for race witnesses): absent for
    // snapshots without a parent table, so older files — which end at the
    // histogram — still parse.
    if let Some(parents) = pt.reach.parents() {
        for &par in parents {
            // NO_PARENT → 0, else parent+1: keeps the root a 1-byte varint.
            varint::put(
                &mut header,
                if par == stint_sporder::NO_PARENT {
                    0
                } else {
                    u64::from(par) + 1
                },
            );
        }
    }
    let mut frame = Vec::new();
    wire::put_frame(&mut frame, &header);
    w.write_all(&frame)?;
    stats.bytes += frame.len() as u64;

    // Chunks: greedy runs, one chunk built at a time. A chunk is its run
    // count, then the checked frame of its payload.
    let (mut runs, mut payload) = (Vec::new(), Vec::new());
    let mut rest = &pt.trace.events[..];
    while !rest.is_empty() {
        rest = &rest[build_chunk(rest, chunk_events, &mut runs)..];
        payload.clear();
        let mut prev_addr = 0usize; // chunks decode independently
        for r in &runs {
            encode_run(&mut payload, r, &mut prev_addr);
        }
        frame.clear();
        varint::put(&mut frame, runs.len() as u64);
        wire::put_frame(&mut frame, &payload);
        w.write_all(&frame)?;
        stats.bytes += frame.len() as u64;
        stats.chunks += 1;
        stats.runs += runs.len() as u64;
    }
    Ok(stats)
}

// ------------------------------------------------------------------- read

/// Streaming reader for the `STINT-TRACE v2` format: the header is validated
/// and resident ([`RunSource::header`]); event chunks are decoded one
/// [`CompressedTraceReader::next_chunk`] call at a time.
pub struct CompressedTraceReader<R> {
    r: R,
    reach: FrozenReach,
    total_events: u64,
    word_lo: u64,
    word_hi: u64,
    hist: Vec<u64>,
    events_seen: u64,
    bytes_read: u64,
    chunks_read: u64,
    scratch: Vec<u8>,
}

/// What a trace declares before its first run: the reachability its strands
/// refer to, its event count and its partition index (word bounds over every
/// access and free, `None` if there is none, and the histogram over them).
#[derive(Clone, Copy, Debug)]
pub struct TraceHeader<'a> {
    pub reach: &'a FrozenReach,
    pub total_events: u64,
    pub bounds: Option<(u64, u64)>,
    pub hist: &'a [u64],
}

/// A trace of either format read as its runs, one chunk at a time.
pub trait RunSource {
    fn header(&self) -> TraceHeader<'_>;

    /// The next chunk of runs into `out` (cleared first); `false` once every
    /// event was yielded. A run handed out names a strand the header has and
    /// stays inside the address space; damaged input is `InvalidData`.
    fn next_chunk(&mut self, out: &mut Vec<EventRun>) -> io::Result<bool>;

    /// The source yielded exactly the events it declared (an in-memory one
    /// always does). Call after `next_chunk` returns `false`.
    fn finished(&self) -> io::Result<()> {
        Ok(())
    }

    /// Encoded bytes (chunk framing and payload) and chunks read so far, for
    /// a v2 stream; `None` for any other source.
    fn ingested(&self) -> Option<(u64, u64)> {
        None
    }
}

impl<R: BufRead> CompressedTraceReader<R> {
    /// Parse and validate the magic line and header. Returns a reader
    /// positioned at the first chunk.
    pub fn open(mut r: R) -> io::Result<Self> {
        if read_magic(&mut r)? != TraceMagic::V2 {
            return Err(bad(format!("bad magic: expected {MAGIC_V2}")));
        }
        Self::open_after_magic(r)
    }

    /// Like [`Self::open`] for a stream whose magic line was already
    /// consumed ([`crate::open_any`] reads it first).
    pub(crate) fn open_after_magic(mut r: R) -> io::Result<Self> {
        let mut header = Vec::new();
        wire::read_frame(&mut r, None, MAX_FRAME, &mut header).map_err(|e| match e {
            FrameError::Len(e) | FrameError::Sum(e) => e,
            FrameError::TooLong { .. } => bad("unreasonable header length"),
            FrameError::Payload(_) => bad("truncated header"),
            FrameError::Checksum => bad("header checksum mismatch"),
        })?;
        let mut pos = 0usize;
        let n = varint::get(&header, &mut pos)? as usize;
        // Each strand's two ranks take a byte at least: no claim beyond that.
        if n == 0 || n > u32::MAX as usize || n > (header.len() - pos) / 2 {
            return Err(bad("bad strand count"));
        }
        let mut eng = Vec::with_capacity(wire::capacity::<u32>(n as u64));
        let mut heb = Vec::with_capacity(wire::capacity::<u32>(n as u64));
        for _ in 0..n {
            let e = varint::get(&header, &mut pos)?;
            let h = varint::get(&header, &mut pos)?;
            if e > u64::from(u32::MAX) || h > u64::from(u32::MAX) {
                return Err(bad("rank out of range"));
            }
            eng.push(e as u32);
            heb.push(h as u32);
        }
        // `FrozenReach::from_ranks` panics on malformed ranks; a corrupt
        // file must surface as `InvalidData` instead.
        if !is_permutation(&eng) || !is_permutation(&heb) {
            return Err(bad("ranks are not a permutation"));
        }
        let total_events = varint::get(&header, &mut pos)?;
        let word_lo = varint::get(&header, &mut pos)?;
        let span = varint::get(&header, &mut pos)?;
        let word_hi = word_lo.checked_add(span).ok_or_else(|| bad("bad bounds"))?;
        let buckets = varint::get(&header, &mut pos)? as usize;
        if buckets != HIST_BUCKETS {
            return Err(bad(format!(
                "bad histogram size {buckets} (expected {HIST_BUCKETS})"
            )));
        }
        let mut hist = Vec::with_capacity(HIST_BUCKETS);
        for _ in 0..HIST_BUCKETS {
            hist.push(varint::get(&header, &mut pos)?);
        }
        // Optional lineage block: headers written without a parent table end
        // at the histogram; otherwise exactly one parent entry per strand.
        let mut parents: Vec<u32> = Vec::new();
        if pos != header.len() {
            parents.reserve(wire::capacity::<u32>(n as u64));
            for i in 0..n {
                let v = varint::get(&header, &mut pos)?;
                let par = if v == 0 {
                    stint_sporder::NO_PARENT
                } else {
                    let par = v - 1;
                    if par >= n as u64 || par as usize == i {
                        return Err(bad("parent entry out of range or self-referential"));
                    }
                    par as u32
                };
                parents.push(par);
            }
        }
        if pos != header.len() {
            return Err(bad("trailing bytes in header"));
        }
        let mut reach = FrozenReach::from_ranks(eng, heb);
        if !parents.is_empty() {
            reach = reach.with_parents(parents);
        }
        Ok(CompressedTraceReader {
            r,
            reach,
            total_events,
            word_lo,
            word_hi,
            hist,
            events_seen: 0,
            bytes_read: 0,
            chunks_read: 0,
            scratch: Vec::new(),
        })
    }

    /// Compressed payload + framing bytes consumed so far (excluding the
    /// magic line and header).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// [`RunSource::next_chunk`]: decode the next chunk of runs into `out`.
    /// The chunk's payload is held against the FNV-1a sum its frame declared
    /// before any of it is decoded, so a damaged chunk reports its checksum
    /// mismatch ahead of any decode error and `out` only ever holds what was
    /// written. Truncated input, checksum mismatches, run/event-count
    /// disagreements, a run naming a strand the header lacks and a run
    /// reaching past the address space are `InvalidData` errors: a chunk
    /// handed out is a valid one.
    pub fn next_chunk(&mut self, out: &mut Vec<EventRun>) -> io::Result<bool> {
        out.clear();
        if self.events_seen >= self.total_events {
            return Ok(false);
        }
        let (run_count, count_bytes) =
            varint::read(&mut self.r).map_err(|_| bad("truncated chunk frame"))?;
        let frame = wire::read_frame(&mut self.r, None, MAX_FRAME, &mut self.scratch);
        let took = frame.map_err(|e| match e {
            FrameError::Len(_)
            | FrameError::Sum(_)
            | FrameError::TooLong { sum_torn: true, .. } => bad("truncated chunk frame"),
            FrameError::TooLong { .. } => bad("unreasonable chunk length"),
            FrameError::Payload(_) => bad("truncated chunk payload"),
            FrameError::Checksum => bad("chunk checksum mismatch"),
        })?;
        // Saturating: counts near 2^64 must not wrap past the check below.
        let decoded = decode_payload(&self.scratch, run_count, out)?;
        self.events_seen = self.events_seen.saturating_add(decoded);
        if self.events_seen > self.total_events {
            return Err(bad("chunk yields more events than the header declared"));
        }
        let n = self.reach.strand_count();
        check_runs(out.iter().copied(), n, |_, run, strand| {
            let s = run.strand.0;
            if strand {
                format!("run strand {s} out of range (trace has {n} strands)")
            } else {
                let (addr, stride) = (run.addr, run.stride);
                format!("run at {addr:#x} stride {stride} overflows the address space")
            }
        })?;
        self.bytes_read += count_bytes as u64 + took;
        self.chunks_read += 1;
        Ok(true)
    }
}

impl<R: BufRead> RunSource for CompressedTraceReader<R> {
    fn header(&self) -> TraceHeader<'_> {
        TraceHeader {
            reach: &self.reach,
            total_events: self.total_events,
            bounds: (self.word_hi > self.word_lo).then_some((self.word_lo, self.word_hi)),
            hist: &self.hist,
        }
    }

    fn next_chunk(&mut self, out: &mut Vec<EventRun>) -> io::Result<bool> {
        CompressedTraceReader::next_chunk(self, out)
    }

    fn finished(&self) -> io::Result<()> {
        if self.events_seen != self.total_events {
            return Err(bad(format!(
                "trace ends after {} of {} events",
                self.events_seen, self.total_events
            )));
        }
        Ok(())
    }

    fn ingested(&self) -> Option<(u64, u64)> {
        Some((self.bytes_read, self.chunks_read))
    }
}

/// An in-memory trace as a [`RunSource`], in the runs and chunks
/// [`save_compressed`] writes at [`DEFAULT_CHUNK_EVENTS`], built one chunk
/// at a time: borrowed, or a v1 file parsed whole. So a trace reaches the
/// batch front in one shape from memory and from every v2 chunking.
pub struct TraceRuns<'a> {
    pt: Cow<'a, PortableTrace>,
    index: (Option<(u64, u64)>, Vec<u64>),
    next: usize,
}

impl<'a> TraceRuns<'a> {
    /// Check every event, then compute the partition index: the whole trace
    /// is in hand, so a damaged one is refused before anything is planned.
    pub fn new(pt: Cow<'a, PortableTrace>) -> io::Result<TraceRuns<'a>> {
        let n = pt.reach.strand_count();
        let runs = pt.trace.events.iter().map(EventRun::single);
        check_runs(runs, n, |i, e, strand| {
            let s = e.strand.0;
            if strand {
                format!("event {i}: strand {s} out of range (trace has {n} strands)")
            } else {
                let (addr, bytes) = (e.addr, e.bytes);
                format!("event {i}: byte range {addr:#x}+{bytes} overflows the address space")
            }
        })?;
        let index = partition_index(&pt.trace.events);
        Ok(TraceRuns { pt, index, next: 0 })
    }
}

impl RunSource for TraceRuns<'_> {
    fn header(&self) -> TraceHeader<'_> {
        TraceHeader {
            reach: &self.pt.reach,
            total_events: self.pt.trace.len() as u64,
            bounds: self.index.0,
            hist: &self.index.1,
        }
    }

    fn next_chunk(&mut self, out: &mut Vec<EventRun>) -> io::Result<bool> {
        let rest = &self.pt.trace.events[self.next..];
        let taken = build_chunk(rest, DEFAULT_CHUNK_EVENTS, out);
        self.next += taken;
        Ok(taken > 0)
    }
}

/// Feed every run of `src` to `f`, in order, with the reachability its
/// strands refer to; then check that the source ended where it said.
pub fn for_each_run(
    src: &mut dyn RunSource,
    mut f: impl FnMut(&FrozenReach, &EventRun),
) -> io::Result<()> {
    let mut runs = Vec::new();
    while src.next_chunk(&mut runs)? {
        let reach = src.header().reach;
        for run in &runs {
            f(reach, run);
        }
    }
    src.finished()
}

/// Every event of `src`, expanded into a whole trace for a caller that needs
/// one (witness verification, tests); detection needs one chunk at a time.
pub fn collect(src: &mut dyn RunSource) -> io::Result<PortableTrace> {
    let total = src.header().total_events;
    let mut events = Vec::with_capacity(wire::capacity::<TraceEvent>(total));
    for_each_run(src, |_, run| {
        events.extend((0..run.count).map(|i| run.event(i)));
    })?;
    Ok(PortableTrace {
        trace: Trace { events },
        reach: src.header().reach.clone(),
    })
}

/// Decode a verified chunk payload of `run_count` runs into `out`; returns
/// the events they expand to.
fn decode_payload(payload: &[u8], run_count: u64, out: &mut Vec<EventRun>) -> io::Result<u64> {
    let mut pos = 0usize;
    let mut prev_addr = 0usize;
    let mut decoded = 0u64;
    for _ in 0..run_count {
        let run = decode_run(payload, &mut pos, &mut prev_addr)?;
        decoded = decoded.saturating_add(run.count);
        out.push(run);
    }
    if pos != payload.len() {
        return Err(bad("trailing bytes in chunk"));
    }
    Ok(decoded)
}

fn decode_run(buf: &[u8], pos: &mut usize, prev_addr: &mut usize) -> io::Result<EventRun> {
    let tag = *buf.get(*pos).ok_or_else(|| bad("truncated run"))?;
    *pos += 1;
    let op = *OP_TAGS
        .get(tag as usize)
        .ok_or_else(|| bad("unknown event op"))?;
    let strand = varint::get(buf, pos)?;
    if strand > u64::from(u32::MAX) {
        return Err(bad("strand id out of range"));
    }
    let mut run = EventRun {
        op,
        strand: StrandId(strand as u32),
        addr: 0,
        bytes: 0,
        count: 1,
        stride: 0,
    };
    if op != TraceOp::StrandEnd {
        let delta = get_zigzag(buf, pos)?;
        run.addr = (*prev_addr as i64).wrapping_add(delta) as usize;
        run.bytes = varint::get(buf, pos)? as usize;
        if !matches!(op, TraceOp::Free) {
            run.count = varint::get(buf, pos)?;
            if run.count == 0 {
                return Err(bad("empty run"));
            }
            if run.count > 1 {
                run.stride = get_zigzag(buf, pos)?;
            }
        }
        *prev_addr = run.last_addr();
    }
    Ok(run)
}

/// Load a whole compressed trace into memory: [`collect`] over a
/// [`CompressedTraceReader`].
pub fn load_compressed<R: BufRead>(r: R) -> io::Result<PortableTrace> {
    collect(&mut CompressedTraceReader::open(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cilk, CilkProgram};

    struct Strided;
    impl CilkProgram for Strided {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| {
                for i in 0..100usize {
                    c.store(0x1000 + i * 8, 8);
                }
            });
            for i in 0..100usize {
                ctx.load(0x1000 + i * 8, 8);
            }
            ctx.sync();
            ctx.free(0x1000, 64);
        }
    }

    /// The hook stream of `Strided` — 200 accesses in long strided runs —
    /// the codec's fixture (a recorded, coalesced trace is a few units).
    fn strided_hooks() -> PortableTrace {
        let (trace, reach) = crate::record(&mut Strided);
        PortableTrace {
            trace,
            reach: reach.freeze(),
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let pt = strided_hooks();
        for chunk in [1usize, 7, 64, 100_000] {
            let mut buf = Vec::new();
            let st = save_compressed(&pt, &mut buf, chunk).unwrap();
            assert_eq!(st.events, pt.trace.len() as u64);
            assert!(st.runs < st.events, "strided accesses must coalesce");
            assert_eq!(crate::sniff_magic(&buf), TraceMagic::V2);
            let back = load_compressed(&buf[..]).unwrap();
            assert_eq!(back.trace.events, pt.trace.events, "chunk={chunk}");
            assert_eq!(back.reach, pt.reach);
        }
    }

    #[test]
    fn compresses_well_below_half_of_v1() {
        let pt = strided_hooks();
        let mut v1 = Vec::new();
        pt.save(&mut v1).unwrap();
        let mut v2 = Vec::new();
        save_compressed(&pt, &mut v2, DEFAULT_CHUNK_EVENTS).unwrap();
        assert!(
            v2.len() * 2 < v1.len(),
            "v2 {} bytes not under half of v1 {} bytes",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn wholesale_range_matches_word_coverage() {
        let run = EventRun {
            op: TraceOp::Store,
            strand: StrandId(3),
            addr: 0x100,
            bytes: 8,
            count: 10,
            stride: 8,
        };
        assert_eq!(
            run.as_wholesale_range(),
            Some((TraceOp::StoreRange, 0x100, 80))
        );
        // Overlapping or gapped strides must decode event by event.
        for s in [4i64, 12, -8] {
            let r = EventRun { stride: s, ..run };
            assert_eq!(r.as_wholesale_range(), None, "stride {s}");
        }
        // Unaligned runs fall back too.
        let r = EventRun { addr: 0x101, ..run };
        assert_eq!(r.as_wholesale_range(), None);
    }

    #[test]
    fn truncation_and_bitflips_are_invalid_data() {
        let pt = strided_hooks();
        let mut buf = Vec::new();
        save_compressed(&pt, &mut buf, 32).unwrap();
        // Truncate at several depths: header, mid-chunk, last chunk.
        for frac in [1usize, 3, 7] {
            let cut = buf.len() * frac / 8;
            assert!(
                load_compressed(&buf[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Flip one bit in every region of the file; decoding must fail (a
        // flip in a varint length/checksum or payload is always caught by
        // the framing checks).
        for at in [20usize, buf.len() / 2, buf.len() - 4] {
            let mut bad = buf.clone();
            bad[at] ^= 0x10;
            assert!(load_compressed(&bad[..]).is_err(), "bit flip at {at}");
        }
    }

    /// A chunk the reader hands out is a valid one: a run naming a strand the
    /// header lacks is refused by `next_chunk` itself, so the whole-trace
    /// loader never returns it.
    #[test]
    fn run_strand_out_of_range_is_invalid_data() {
        let mut pt = strided_hooks();
        let n = pt.reach.strand_count() as u32;
        pt.trace.events[0].strand = StrandId(n);
        let mut buf = Vec::new();
        save_compressed(&pt, &mut buf, DEFAULT_CHUNK_EVENTS).unwrap();
        let e = load_compressed(&buf[..]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let want = format!("run strand {n} out of range (trace has {n} strands)");
        assert_eq!(e.to_string(), want);
    }

    #[test]
    fn header_carries_partition_index() {
        let pt = strided_hooks();
        let mut buf = Vec::new();
        save_compressed(&pt, &mut buf, 64).unwrap();
        let reader = CompressedTraceReader::open(&buf[..]).unwrap();
        let (bounds, hist) = partition_index(&pt.trace.events);
        let (lo, hi) = bounds.unwrap();
        assert_eq!((reader.word_lo, reader.word_hi), (lo, hi));
        assert_eq!(reader.hist, hist);
        assert_eq!(
            reader.hist.iter().sum::<u64>(),
            pt.trace
                .events
                .iter()
                .filter(|e| e.op != TraceOp::StrandEnd)
                .count() as u64
        );
    }
}
