//! Compressed, chunked on-disk trace encoding (`STINT-TRACE v2`).
//!
//! The v1 format spells every event as a text line (~12–16 bytes per
//! event). "Data Race Detection on Compressed Traces" (PAPERS.md) observes
//! that instrumentation streams are extremely regular — long runs of
//! same-strand, same-size accesses marching through memory at a constant
//! stride — and that detection can run *directly over the compressed form*.
//! A recorded trace ([`PortableTrace::record`]) is already the most
//! compressed form this detector can use, each strand's coalesced runs; the
//! encoding below still squeezes its frame, and a hook-level stream — an
//! older file, or [`crate::record`]'s — shrinks by its run-length records.
//! This module provides that encoding:
//!
//! * **delta-coded addresses** — each event stores a zigzag varint delta
//!   against the previous event's address (reset per chunk so chunks decode
//!   independently);
//! * **run-length coalesced runs** — consecutive events with the same op,
//!   strand, byte count, and constant address stride collapse into one
//!   [`EventRun`] record with a repeat count. Decoding expands a run back to
//!   the exact original events, so a compressed round trip reproduces the
//!   identical stream (and therefore identical reports *and* detector
//!   statistics). Contiguous runs (`stride == bytes`, word-aligned) can
//!   instead be consumed *wholesale* by the interval detector as a single
//!   coalesced range access — see [`EventRun::as_wholesale_range`]. Only a
//!   hook stream has them: a strand's coalesced runs never touch;
//! * **varint lengths and fixed-size chunks** — events are grouped into
//!   chunks of at most `chunk_events` decoded events, each with its own
//!   length and FNV-1a checksum, so a reader streams a trace far larger
//!   than RAM one chunk at a time and a bit flip anywhere is caught
//!   structurally instead of corrupting detection: there is one way to
//!   read a chunk, [`CompressedTraceReader::next_chunk`], and it checks the
//!   checksum before decoding anything;
//! * **a partition index in the header** — the word-space bounds plus a
//!   [`HIST_BUCKETS`]-bucket event histogram, computed once at save time, so
//!   a streaming batch detector can choose load-balanced address shards
//!   *before* reading any chunk.
//!
//! The header (strand ranks, event count, bounds, histogram) is covered by
//! its own checksum; [`CompressedTraceReader::open`] validates it before
//! returning, extending the `validate()` contract to the new format. A
//! stream of either format is opened by [`crate::open_any`], which reads the
//! magic line and hands a v2 stream to this reader.

use std::io::{self, BufRead, Write};

use crate::trace::{read_magic, PortableTrace, Trace, TraceEvent, TraceMagic, TraceOp};
use crate::varint;
use stint_sporder::{FrozenReach, StrandId};

/// Magic first line of the compressed format (text, so `file`/`head` can
/// identify a trace; everything after the newline is binary).
pub const MAGIC_V2: &str = "STINT-TRACE v2";

/// Buckets in the header's event histogram (the partition index).
pub const HIST_BUCKETS: usize = 256;

/// Default maximum decoded events per chunk.
pub const DEFAULT_CHUNK_EVENTS: usize = 4096;

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

/// FNV-1a 64 — the chunk and header checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ------------------------------------------------------------------- runs

const OP_TAGS: [TraceOp; 6] = [
    TraceOp::Load,
    TraceOp::Store,
    TraceOp::LoadRange,
    TraceOp::StoreRange,
    TraceOp::Free,
    TraceOp::StrandEnd,
];

fn op_tag(op: TraceOp) -> u8 {
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

    /// Expand the run back to its exact original events.
    pub fn expand_into(&self, out: &mut Vec<TraceEvent>) {
        let mut e = self.first();
        for _ in 0..self.count {
            out.push(e);
            e.addr = (e.addr as i64).wrapping_add(self.stride) as usize;
        }
    }
}

/// Greedy run-length construction over an event slice: consecutive access
/// events with the same op, strand, and byte count at a constant stride
/// collapse into one run. `Free` and `StrandEnd` never coalesce.
fn build_runs(events: &[TraceEvent]) -> Vec<EventRun> {
    let mut runs: Vec<EventRun> = Vec::new();
    for e in events {
        let coalescable = !matches!(e.op, TraceOp::Free | TraceOp::StrandEnd);
        if coalescable {
            if let Some(r) = runs.last_mut() {
                if r.op == e.op && r.strand == e.strand && r.bytes == e.bytes {
                    let delta = (e.addr as i64).wrapping_sub(r.last_addr() as i64);
                    if r.count == 1 {
                        r.stride = delta;
                        r.count = 2;
                        continue;
                    } else if delta == r.stride {
                        r.count += 1;
                        continue;
                    }
                }
            }
        }
        runs.push(EventRun::single(e));
    }
    runs
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
    let mut framing = Vec::new();
    varint::put(&mut framing, header.len() as u64);
    varint::put(&mut framing, fnv1a(&header));
    w.write_all(&framing)?;
    w.write_all(&header)?;
    stats.bytes += (framing.len() + header.len()) as u64;

    // Chunks: greedy runs, flushed when the decoded-event budget is met.
    let runs = build_runs(&pt.trace.events);
    stats.runs = runs.len() as u64;
    let mut payload = Vec::new();
    let mut prev_addr = 0usize;
    let mut chunk_runs = 0u64;
    let mut chunk_decoded = 0usize;
    let flush = |payload: &mut Vec<u8>,
                 chunk_runs: &mut u64,
                 w: &mut W,
                 stats: &mut CompressStats|
     -> io::Result<()> {
        if *chunk_runs == 0 {
            return Ok(());
        }
        let mut frame = Vec::new();
        varint::put(&mut frame, *chunk_runs);
        varint::put(&mut frame, payload.len() as u64);
        varint::put(&mut frame, fnv1a(payload));
        w.write_all(&frame)?;
        w.write_all(payload)?;
        stats.bytes += (frame.len() + payload.len()) as u64;
        stats.chunks += 1;
        payload.clear();
        *chunk_runs = 0;
        Ok(())
    };
    for r in &runs {
        encode_run(&mut payload, r, &mut prev_addr);
        chunk_runs += 1;
        chunk_decoded += r.count as usize;
        if chunk_decoded >= chunk_events {
            flush(&mut payload, &mut chunk_runs, &mut w, &mut stats)?;
            chunk_decoded = 0;
            prev_addr = 0; // chunks decode independently
        }
    }
    flush(&mut payload, &mut chunk_runs, &mut w, &mut stats)?;
    Ok(stats)
}

// ------------------------------------------------------------------- read

/// Streaming reader for the `STINT-TRACE v2` format: the header (ranks +
/// partition index) is validated and resident; event chunks are decoded one
/// [`CompressedTraceReader::next_chunk`] call at a time, so detection over a
/// trace never needs the whole event stream in memory.
pub struct CompressedTraceReader<R> {
    r: R,
    pub reach: FrozenReach,
    /// Total decoded events the stream must yield.
    pub total_events: u64,
    /// Word-space bounds `[word_lo, word_hi)` over all access/free events.
    pub word_lo: u64,
    pub word_hi: u64,
    /// The save-time event histogram over [`HIST_BUCKETS`] buckets.
    pub hist: Vec<u64>,
    events_seen: u64,
    bytes_read: u64,
    chunks_read: u64,
    scratch: Vec<u8>,
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
        let (header_len, _) = varint::read(&mut r)?;
        if header_len > 64 << 20 {
            return Err(bad("unreasonable header length"));
        }
        let (want_sum, _) = varint::read(&mut r)?;
        let mut header = vec![0u8; header_len as usize];
        r.read_exact(&mut header)
            .map_err(|_| bad("truncated header"))?;
        if fnv1a(&header) != want_sum {
            return Err(bad("header checksum mismatch"));
        }
        let mut pos = 0usize;
        let n = varint::get(&header, &mut pos)? as usize;
        if n == 0 || n > u32::MAX as usize {
            return Err(bad("bad strand count"));
        }
        let mut eng = Vec::with_capacity(n);
        let mut heb = Vec::with_capacity(n);
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
        let mut hist = Vec::with_capacity(buckets);
        for _ in 0..buckets {
            hist.push(varint::get(&header, &mut pos)?);
        }
        // Optional lineage block: headers written without a parent table end
        // at the histogram; otherwise exactly one parent entry per strand.
        let mut parents: Vec<u32> = Vec::new();
        if pos != header.len() {
            parents.reserve(n);
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

    /// Chunks decoded so far.
    pub fn chunks_read(&self) -> u64 {
        self.chunks_read
    }

    /// Decode the next chunk of runs into `out` (clearing it first). The
    /// chunk's payload is held against the FNV-1a sum its frame declared
    /// before any of it is decoded, so a damaged chunk reports its checksum
    /// mismatch ahead of any decode error and `out` only ever holds what was
    /// written. Returns `false` once every event was yielded. Truncated
    /// input, checksum mismatches, and run/event-count disagreements are
    /// `InvalidData` errors.
    pub fn next_chunk(&mut self, out: &mut Vec<EventRun>) -> io::Result<bool> {
        out.clear();
        if self.events_seen >= self.total_events {
            return Ok(false);
        }
        // Chunk framing lives outside the checksummed payloads.
        let mut framing = 0u64;
        let mut frame_varint = || {
            let (v, len) = varint::read(&mut self.r).map_err(|_| bad("truncated chunk frame"))?;
            framing += len as u64;
            Ok::<u64, io::Error>(v)
        };
        let run_count = frame_varint()?;
        let payload_len = frame_varint()?;
        let want_sum = frame_varint()?;
        if payload_len > 64 << 20 {
            return Err(bad("unreasonable chunk length"));
        }
        let payload = &mut self.scratch;
        payload.resize(payload_len as usize, 0);
        self.r
            .read_exact(payload)
            .map_err(|_| bad("truncated chunk payload"))?;
        if fnv1a(payload) != want_sum {
            return Err(bad("chunk checksum mismatch"));
        }
        self.events_seen += decode_payload(payload, run_count, out)?;
        if self.events_seen > self.total_events {
            return Err(bad("chunk yields more events than the header declared"));
        }
        self.bytes_read += framing + payload_len;
        self.chunks_read += 1;
        Ok(true)
    }

    /// Every chunk was read and the stream yielded exactly the declared
    /// event count. Call after `next_chunk` returns `false`.
    pub fn finished(&self) -> io::Result<()> {
        if self.events_seen != self.total_events {
            return Err(bad(format!(
                "trace ends after {} of {} events",
                self.events_seen, self.total_events
            )));
        }
        Ok(())
    }
}

/// Decode a verified chunk payload of `run_count` runs into `out`; returns
/// the events they expand to.
fn decode_payload(payload: &[u8], run_count: u64, out: &mut Vec<EventRun>) -> io::Result<u64> {
    let mut pos = 0usize;
    let mut prev_addr = 0usize;
    let mut decoded = 0u64;
    for _ in 0..run_count {
        let run = decode_run(payload, &mut pos, &mut prev_addr)?;
        decoded += run.count;
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

/// Load a whole compressed trace into memory (the non-streaming path used
/// by `trace replay --variant stint` and the round-trip tests).
pub fn load_compressed<R: BufRead>(r: R) -> io::Result<PortableTrace> {
    let mut reader = CompressedTraceReader::open(r)?;
    load_rest(&mut reader)
}

pub(crate) fn load_rest<R: BufRead>(
    reader: &mut CompressedTraceReader<R>,
) -> io::Result<PortableTrace> {
    let mut events = Vec::with_capacity(reader.total_events.min(1 << 24) as usize);
    let mut runs = Vec::new();
    while reader.next_chunk(&mut runs)? {
        for run in &runs {
            run.expand_into(&mut events);
        }
    }
    reader.finished()?;
    Ok(PortableTrace {
        trace: Trace { events },
        reach: reader.reach.clone(),
    })
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
