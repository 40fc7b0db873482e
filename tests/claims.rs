//! Claims cannot buy memory. A length or count a decoder reads from its
//! input is a claim about bytes that may never arrive, and the claim rule
//! (`stint::wire`, DESIGN.md §9) says no decoder reserves more than 64 KiB,
//! or the bytes already in hand, on one.
//!
//! This binary's allocator records the largest single request. Each decoder
//! of untrusted input starts from a small valid encoding:
//! - a v1 trace, through `load_any` and the batch tier's one entry;
//! - a v2 stream, through `load_compressed`, `load_any` and the batch tier;
//! - a v2 stream whose header event total and one contiguous run's count
//!   are raised together, consistent and sealed, through the sequential
//!   replay `trace replay` runs (`open_any` + `try_replay_runs`) and the
//!   batch tier: a run's count is a claim no single-field rewrite reaches;
//! - request and response frames;
//! - a session journal.
//!
//! Every length or count field is rewritten to a claim (value + 1, each
//! decoder's cap, 2^31, 2^40, the field's max), and a checksum that covers
//! the field is re-sealed, so the claim is what gets tested. Every
//! truncation is decoded too. Each case must return `Ok` or a structured
//! error, never panic, and allocate nothing over 1 MiB in one request.
//! Each cap is also met at its exact boundary: a claim equal to the cap
//! must end in that decoder's truncation error, one more in its too-long
//! error.
//!
//! One `#[test]` runs every case, so no parallel test shares the peak. The
//! `#[ignore]`d one widens the inputs (every suite kernel, three chunk
//! sizes) and adds every single-bit flip of every field's value;
//! `scripts/perfgate.sh` runs it with `-- --ignored`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use stint_repro::batchdet::{batch_detect_any, BatchConfig};
use stint_repro::cilkrt::ThreadPool;
use stint_repro::ctrace::fnv1a;
use stint_repro::serve::journal::{self, SessionEvent};
use stint_repro::serve::protocol::{self, FrameError, Request, Response, Status};
use stint_repro::suite::{Scale, Workload, BUGGY_NAMES, NAMES};
use stint_repro::{load_compressed, varint, Cilk, CilkProgram, DetectorError};
use stint_repro::{open_any, try_replay_runs, Config, Variant};
use stint_repro::{PortableTrace, MAGIC_V2};

/// The largest single allocation since the sweep last cleared it.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Largest;

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// The most one request of any case may ask for.
const MAX_ALLOC: usize = 1 << 20;

/// The claims a field of `max` is rewritten to, from its honest `value`:
/// one more, each decoder's cap (the journal's 1 MiB, the v2 header's and
/// chunk's 64 MiB, a frame's 256 MiB), 2^31, 2^40 and the field's max.
fn claims(value: u64, max: u64) -> Vec<u64> {
    let caps = [1 << 20, 1 << 26, 1 << 28];
    let mut v: Vec<u64> = [
        &[value.saturating_add(1)],
        &caps[..],
        &[1 << 31, 1 << 40, max],
    ]
    .concat()
    .into_iter()
    .filter(|&c| c <= max && c != value)
    .collect();
    v.dedup();
    v
}

/// Claims, and in the wide row every single-bit flip of the value too.
fn rewrites(value: u64, max: u64, flips: bool) -> Vec<u64> {
    let mut v = claims(value, max);
    if flips {
        let bits = 64 - max.leading_zeros();
        v.extend((0..bits).map(|b| value ^ (1 << b)));
    }
    v
}

// ------------------------------------------------------------- encodings

/// A spawned child stores a few words, the continuation reads them back,
/// then the block is freed: a few strands, several runs.
struct Tiny;

impl CilkProgram for Tiny {
    fn run<C: Cilk>(&mut self, ctx: &mut C) {
        ctx.spawn(|c| {
            for i in 0..6usize {
                c.store(0x1000 + i * 16, 8);
            }
        });
        ctx.load(0x1000, 8);
        ctx.sync();
        ctx.load_range(0x1000, 96);
        ctx.free(0x1000, 96);
    }
}

fn v1_of(pt: &PortableTrace) -> Vec<u8> {
    let mut out = Vec::new();
    pt.save(&mut out).expect("save v1");
    out
}

/// A v1 trace with its `key N` header line claiming `claim`.
fn v1_claiming(v1: &[u8], key: &str, claim: u64) -> Vec<u8> {
    let text = std::str::from_utf8(v1).expect("v1 is text");
    let lines: Vec<String> = text
        .lines()
        .map(|l| match l.strip_prefix(key) {
            Some(_) => format!("{key}{claim}"),
            None => l.to_string(),
        })
        .collect();
    (lines.join("\n") + "\n").into_bytes()
}

/// One run of a chunk payload: its op tag and its varints (strand, then
/// for an access delta, bytes, count and a stride when count > 1).
type Run = (u8, Vec<u64>);

/// A v2 stream taken apart into the fields a claim can sit in.
#[derive(Clone)]
struct V2 {
    header: Vec<u64>,
    chunks: Vec<(u64, Vec<Run>)>,
}

const TAG_FREE: u8 = 4;
const TAG_STRAND_END: u8 = 5;

impl V2 {
    fn parse(bytes: &[u8]) -> V2 {
        let mut pos = MAGIC_V2.len() + 1;
        let frame = |pos: &mut usize| {
            let len = varint::get(bytes, pos).expect("frame length") as usize;
            varint::get(bytes, pos).expect("frame sum");
            *pos += len;
            &bytes[*pos - len..*pos]
        };
        let header_bytes = frame(&mut pos);
        let mut header = Vec::new();
        let mut hp = 0;
        while hp < header_bytes.len() {
            header.push(varint::get(header_bytes, &mut hp).expect("header varint"));
        }
        let mut chunks = Vec::new();
        while pos < bytes.len() {
            let count = varint::get(bytes, &mut pos).expect("run count");
            let payload = frame(&mut pos);
            let mut runs = Vec::new();
            let mut p = 0;
            while p < payload.len() {
                let tag = payload[p];
                p += 1;
                let mut fields = vec![varint::get(payload, &mut p).expect("strand")];
                let arity = match tag {
                    TAG_STRAND_END => 0,
                    TAG_FREE => 2,
                    _ => 3,
                };
                for _ in 0..arity {
                    fields.push(varint::get(payload, &mut p).expect("field"));
                }
                if arity == 3 && fields[3] > 1 {
                    fields.push(varint::get(payload, &mut p).expect("stride"));
                }
                runs.push((tag, fields));
            }
            chunks.push((count, runs));
        }
        V2 { header, chunks }
    }

    fn header_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for &v in &self.header {
            varint::put(&mut out, v);
        }
        out
    }

    /// The stream again, every checksum sealed over what it covers. A
    /// `Some` length replaces the header's, or chunk `c`'s, own (no checksum
    /// covers a frame's length).
    fn encode(&self, header_len: Option<u64>, chunk_len: Option<(usize, u64)>) -> Vec<u8> {
        let mut out = format!("{MAGIC_V2}\n").into_bytes();
        let frame = |out: &mut Vec<u8>, payload: &[u8], len: Option<u64>| {
            varint::put(out, len.unwrap_or(payload.len() as u64));
            varint::put(out, fnv1a(payload));
            out.extend_from_slice(payload);
        };
        frame(&mut out, &self.header_bytes(), header_len);
        for (i, (count, runs)) in self.chunks.iter().enumerate() {
            varint::put(&mut out, *count);
            let len = chunk_len.filter(|&(c, _)| c == i).map(|(_, l)| l);
            frame(&mut out, &payload(runs), len);
        }
        out
    }
}

fn payload(runs: &[Run]) -> Vec<u8> {
    let mut out = Vec::new();
    for (tag, fields) in runs {
        out.push(*tag);
        for &f in fields {
            varint::put(&mut out, f);
        }
    }
    out
}

/// Every v2 stream with one length or count field rewritten.
fn v2_claims(bytes: &[u8], flips: bool) -> Vec<(String, Vec<u8>)> {
    let v2 = V2::parse(bytes);
    assert_eq!(
        v2.encode(None, None),
        bytes,
        "the model re-encodes the stream"
    );
    let mut out = Vec::new();
    for c in rewrites(v2.header_bytes().len() as u64, u64::MAX, flips) {
        out.push((format!("v2 header length {c}"), v2.encode(Some(c), None)));
    }
    let n = v2.header[0] as usize;
    let counts = [
        ("strand", 0),
        ("event", 1 + 2 * n),
        ("histogram", 4 + 2 * n),
    ];
    for (what, at) in counts {
        for c in rewrites(v2.header[at], u64::MAX, flips) {
            let mut bad = v2.clone();
            bad.header[at] = c;
            out.push((format!("v2 {what} count {c}"), bad.encode(None, None)));
        }
    }
    // The wide row takes the first two and the last of the chunks, and of
    // each one's runs: a kernel's stream has thousands.
    let ends = |i: usize, n: usize| !flips || i < 2 || i + 1 == n;
    let chunks = v2.chunks.iter().enumerate();
    for (i, (count, runs)) in chunks.filter(|&(i, _)| ends(i, v2.chunks.len())) {
        for c in rewrites(*count, u64::MAX, flips) {
            let mut bad = v2.clone();
            bad.chunks[i].0 = c;
            out.push((
                format!("v2 chunk {i} run count {c}"),
                bad.encode(None, None),
            ));
        }
        for c in rewrites(payload(runs).len() as u64, u64::MAX, flips) {
            let bytes = v2.encode(None, Some((i, c)));
            out.push((format!("v2 chunk {i} length {c}"), bytes));
        }
        for (r, (tag, fields)) in runs.iter().enumerate() {
            if *tag >= TAG_FREE || !ends(r, runs.len()) {
                continue;
            }
            for c in rewrites(fields[3], u64::MAX, flips) {
                let mut bad = v2.clone();
                let run = &mut bad.chunks[i].1[r].1;
                run[3] = c;
                match (run.len(), c > 1) {
                    (4, true) => run.push(run[2] << 1), // zigzag stride = bytes
                    (5, false) => run.truncate(4),
                    _ => {}
                }
                out.push((
                    format!("v2 chunk {i} run {r} count {c}"),
                    bad.encode(None, None),
                ));
            }
        }
    }
    out
}

/// `pt`'s v2 stream with its header's event total and one run's count
/// raised together to each claim, the run made contiguous (`stride ==
/// bytes`), both checksums sealed: a consistent file whose one run stands
/// for `claim` events. Replayed a chunk at a time it costs what the
/// detector keeps, which for a contiguous run is one interval; a whole-trace
/// load would hold `claim` events. (A gapped run's intervals are content:
/// the detector's own run list grows with them.)
fn paired_claims(pt: &PortableTrace) -> Vec<(Decoder, String, Vec<u8>)> {
    let mut bytes = Vec::new();
    pt.save_compressed(&mut bytes, 2).expect("save v2");
    let v2 = V2::parse(&bytes);
    let total = 1 + 2 * v2.header[0] as usize;
    let one_access = |runs: &Vec<Run>| {
        let is = |(tag, fields): &Run| *tag < TAG_FREE && fields.len() == 4;
        runs.iter().position(is)
    };
    let mut chunks = v2.chunks.iter().enumerate();
    let (c, r) = chunks
        .find_map(|(c, (_, runs))| one_access(runs).map(|r| (c, r)))
        .expect("a run of one access");
    let mut rows = Vec::new();
    for claim in [1u64 << 16, 1 << 20] {
        let mut bad = v2.clone();
        bad.header[total] += claim - 1;
        let run = &mut bad.chunks[c].1[r].1;
        run[3] = claim;
        run.push(run[2] << 1); // zigzag stride = bytes
        let name = format!("v2 event total and chunk {c} run {r} count {claim}");
        rows.push((Decoder::Runs, name, bad.encode(None, None)));
    }
    rows
}

fn request_frames(v1: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let detect = Request::Detect {
        opts: "shards=2".into(),
        trace: v1.to_vec(),
    };
    for req in [detect, Request::Ping, Request::Stats] {
        protocol::write_request(&mut out, &req).expect("frame");
    }
    out
}

fn response_frames() -> Vec<u8> {
    let mut out = Vec::new();
    for resp in [
        Response::new(Status::Racy, 7, "kind: racy\nraces: 1\n"),
        Response::new(Status::Bye, 0, ""),
    ] {
        protocol::write_response(&mut out, &resp).expect("frame");
    }
    out
}

/// Every frame stream with one frame's length (or the DETECT frame's opts
/// length) rewritten; `head` is the bytes before a frame's length field (1
/// in a request, 5 in a response).
fn frame_claims(frames: &[u8], head: usize, flips: bool) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < frames.len() {
        let field = at + head;
        let len = u32::from_le_bytes(frames[field..field + 4].try_into().expect("u32"));
        for c in rewrites(u64::from(len), u64::from(u32::MAX), flips) {
            let mut bad = frames.to_vec();
            bad[field..field + 4].copy_from_slice(&(c as u32).to_le_bytes());
            out.push((format!("frame at {at} length {c}"), bad));
        }
        if head == 1 && frames[at] == protocol::REQ_DETECT {
            let opts = u16::from_le_bytes([frames[field + 4], frames[field + 5]]);
            for c in rewrites(u64::from(opts), u64::from(u16::MAX), flips) {
                let mut bad = frames.to_vec();
                bad[field + 4..field + 6].copy_from_slice(&(c as u16).to_le_bytes());
                out.push((format!("frame at {at} opts length {c}"), bad));
            }
        }
        at = field + 4 + len as usize;
    }
    out
}

fn journal_of(events: &[SessionEvent]) -> Vec<u8> {
    let mut out = format!("{}\n", journal::MAGIC).into_bytes();
    for e in events {
        let payload = e.encode();
        varint::put(&mut out, payload.len() as u64);
        varint::put(&mut out, fnv1a(&payload));
        out.extend_from_slice(&payload);
    }
    out
}

/// Every journal with one record's length rewritten.
fn journal_claims(events: &[SessionEvent], flips: bool) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for i in 0..events.len() {
        let payload = events[i].encode();
        for c in rewrites(payload.len() as u64, u64::MAX, flips) {
            let mut bytes = journal_of(&events[..i]);
            varint::put(&mut bytes, c);
            varint::put(&mut bytes, fnv1a(&payload));
            bytes.extend_from_slice(&payload);
            bytes.extend(&journal_of(&events[i + 1..])[journal::MAGIC.len() + 1..]);
            out.push((format!("journal record {i} length {c}"), bytes));
        }
    }
    out
}

// -------------------------------------------------------------- decoders

#[derive(Clone, Copy, Debug)]
enum Decoder {
    /// `PortableTrace::load_any`, then `load_compressed` when the input is
    /// v2, then the batch tier's one entry.
    Trace,
    /// A consistent trace, which both tiers must detect: sequential STINT
    /// through the replay `trace replay` runs, then the batch tier.
    Runs,
    Requests,
    Responses,
    Journal,
}

/// Decode `bytes` with every entry of `decoder`: `Err` names a panic or an
/// error that is not a structured one.
fn decode(pool: &ThreadPool, decoder: Decoder, bytes: &[u8]) -> Result<(), String> {
    match decoder {
        Decoder::Trace => {
            let _ = PortableTrace::load_any(bytes);
            if bytes.starts_with(MAGIC_V2.as_bytes()) {
                let _ = load_compressed(bytes);
            }
            let cfg = BatchConfig {
                shards: 2,
                ..BatchConfig::default()
            };
            match batch_detect_any(pool, &mut &bytes[..], &cfg) {
                Ok(_) | Err(DetectorError::CorruptTrace { .. }) => Ok(()),
                Err(e) => Err(format!("batch tier: {e}")),
            }
        }
        Decoder::Runs => {
            let mut src = open_any(bytes).map_err(|e| format!("open: {e}"))?;
            let stint = Config::new(Variant::Stint);
            try_replay_runs(&mut *src, stint).map_err(|e| format!("sequential: {e}"))?;
            let cfg = BatchConfig {
                shards: 2,
                ..BatchConfig::default()
            };
            let out = batch_detect_any(pool, &mut &bytes[..], &cfg);
            out.map(drop).map_err(|e| format!("batch tier: {e}"))
        }
        Decoder::Requests | Decoder::Responses => {
            let mut r = bytes;
            loop {
                let got = match decoder {
                    Decoder::Requests => protocol::read_request(&mut r).map(|f| f.is_some()),
                    _ => protocol::read_response(&mut r).map(|f| f.is_some()),
                };
                match got {
                    Ok(true) => {}
                    Ok(false) | Err(FrameError::Malformed(_)) => return Ok(()),
                    Err(e) => return Err(e.to_string()),
                }
            }
        }
        Decoder::Journal => {
            let replay = journal::replay(bytes).map_err(|e| e.to_string())?;
            for rec in &replay.records {
                let _ = SessionEvent::decode(rec);
            }
            Ok(())
        }
    }
}

/// Decode every case; return one line per failure.
fn sweep(pool: &ThreadPool, cases: &[(Decoder, String, Vec<u8>)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (decoder, name, bytes) in cases {
        LARGEST.store(0, Ordering::Relaxed);
        let got = catch_unwind(AssertUnwindSafe(|| decode(pool, *decoder, bytes)));
        let largest = LARGEST.load(Ordering::Relaxed);
        match got {
            Err(_) => failures.push(format!("{decoder:?} {name}: panicked")),
            Ok(Err(e)) => failures.push(format!("{decoder:?} {name}: {e}")),
            Ok(Ok(())) => {}
        }
        if largest > MAX_ALLOC {
            failures.push(format!(
                "{decoder:?} {name}: one allocation of {largest} bytes"
            ));
        }
    }
    failures
}

/// Every case over `programs`' recordings, saved as v2 with each of
/// `chunk_sizes`: the claims, then (when `cuts`) every truncation.
fn cases(
    programs: &[PortableTrace],
    chunk_sizes: &[usize],
    flips: bool,
    cuts: bool,
) -> Vec<(Decoder, String, Vec<u8>)> {
    let mut cases: Vec<(Decoder, String, Vec<u8>)> = Vec::new();
    let mut add = |d: Decoder, valid: Vec<u8>, claimed: Vec<(String, Vec<u8>)>| {
        if cuts {
            for cut in 0..valid.len() {
                cases.push((d, format!("cut at {cut}"), valid[..cut].to_vec()));
            }
        }
        cases.extend(claimed.into_iter().map(|(name, bytes)| (d, name, bytes)));
        cases.push((d, "intact".into(), valid));
    };
    for pt in programs {
        let v1 = v1_of(pt);
        let v1_claims = ["strands ", "events "].iter().flat_map(|key| {
            let n: u64 = std::str::from_utf8(&v1)
                .expect("text")
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|n| n.parse().ok())
                .expect("count line");
            let v1 = &v1;
            rewrites(n, u64::MAX, flips)
                .into_iter()
                .map(move |c| (format!("v1 {key}{c}"), v1_claiming(v1, key, c)))
        });
        add(Decoder::Trace, v1.clone(), v1_claims.collect());
        for &chunk in chunk_sizes {
            let mut v2 = Vec::new();
            pt.save_compressed(&mut v2, chunk).expect("save v2");
            let claimed = v2_claims(&v2, flips);
            add(Decoder::Trace, v2, claimed);
        }
        let requests = request_frames(&v1);
        add(
            Decoder::Requests,
            requests.clone(),
            frame_claims(&requests, 1, flips),
        );
    }
    let responses = response_frames();
    add(
        Decoder::Responses,
        responses.clone(),
        frame_claims(&responses, 5, flips),
    );
    let events: Vec<SessionEvent> = (1..=3)
        .map(|seq| SessionEvent {
            seq,
            t_ms: 10 * seq,
            session: seq as u32,
            kind: journal::EV_ADMITTED,
            code: 0,
            payload: seq,
        })
        .collect();
    add(
        Decoder::Journal,
        journal_of(&events),
        journal_claims(&events, flips),
    );
    cases
}

/// Each cap at its exact boundary: a claimed length equal to the cap is a
/// length the decoder accepts, so the frame ends in its truncation error;
/// one more is refused as too long. A row is its name, its input, and the
/// error its decoder must report.
fn boundary_cases(pt: &PortableTrace) -> Vec<(Decoder, String, Vec<u8>, String)> {
    use stint_repro::ctrace::MAX_FRAME;
    let mut rows = Vec::new();
    let mut v2 = Vec::new();
    pt.save_compressed(&mut v2, 2).expect("save v2");
    let v2 = V2::parse(&v2);
    let frames = [
        (
            "v2 header",
            None,
            "truncated header",
            "unreasonable header length",
        ),
        (
            "v2 chunk 0",
            Some(0),
            "truncated chunk payload",
            "unreasonable chunk length",
        ),
    ];
    for (what, chunk, short, long) in frames {
        for (claim, want) in [(MAX_FRAME, short), (MAX_FRAME + 1, long)] {
            let bytes = match chunk {
                None => v2.encode(Some(claim), None),
                Some(c) => v2.encode(None, Some((c, claim))),
            };
            let name = format!("{what} length {claim}");
            rows.push((Decoder::Trace, name, bytes, want.to_string()));
        }
    }
    let cap = journal::MAX_RECORD;
    for (claim, want) in [
        (
            cap,
            "record 1: torn payload (failed to fill whole buffer)".into(),
        ),
        (
            cap + 1,
            format!("record 1: oversized frame ({} bytes > {cap})", cap + 1),
        ),
    ] {
        let mut bytes = journal_of(&[]);
        varint::put(&mut bytes, claim);
        varint::put(&mut bytes, fnv1a(b""));
        let name = format!("journal record 0 length {claim}");
        rows.push((Decoder::Journal, name, bytes, want));
    }
    let cap = protocol::MAX_FRAME;
    let sides = [
        (Decoder::Requests, request_frames(&v1_of(pt)), 1),
        (Decoder::Responses, response_frames(), 5),
    ];
    for (decoder, frames, head) in sides {
        for (claim, want) in [
            (cap, "truncated frame: EOF in the payload".into()),
            (
                cap + 1,
                format!("frame length {} exceeds the {cap}-byte cap", cap + 1),
            ),
        ] {
            let mut bytes = frames.clone();
            bytes[head..head + 4].copy_from_slice(&(claim as u32).to_le_bytes());
            let name = format!("frame at 0 length {claim}");
            rows.push((decoder, name, bytes, want));
        }
    }
    rows
}

/// The error `decoder`'s first entry reports on `bytes`, or why it reported
/// none.
fn first_error(decoder: Decoder, bytes: &[u8]) -> String {
    match decoder {
        Decoder::Trace => load_compressed(bytes).map_or_else(|e| e.to_string(), |_| "Ok".into()),
        Decoder::Runs => open_any(bytes).map_or_else(|e| e.to_string(), |_| "Ok".into()),
        Decoder::Requests | Decoder::Responses => {
            let mut r = bytes;
            loop {
                let got = match decoder {
                    Decoder::Requests => protocol::read_request(&mut r).map(|f| f.is_some()),
                    _ => protocol::read_response(&mut r).map(|f| f.is_some()),
                };
                match got {
                    Ok(true) => {}
                    Ok(false) => return "Ok".into(),
                    Err(e) => return e.to_string(),
                }
            }
        }
        Decoder::Journal => match journal::replay(bytes) {
            Ok(replay) => replay.corruption.unwrap_or_else(|| "Ok".into()),
            Err(e) => e.to_string(),
        },
    }
}

/// Decode every boundary case; return one line per failure.
fn sweep_boundaries(cases: &[(Decoder, String, Vec<u8>, String)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (decoder, name, bytes, want) in cases {
        LARGEST.store(0, Ordering::Relaxed);
        let got = catch_unwind(AssertUnwindSafe(|| first_error(*decoder, bytes)));
        let largest = LARGEST.load(Ordering::Relaxed);
        match got {
            Err(_) => failures.push(format!("{decoder:?} {name}: panicked")),
            Ok(got) if !got.contains(want.as_str()) => {
                failures.push(format!("{decoder:?} {name}: {got:?}, wanted {want:?}"))
            }
            Ok(_) => {}
        }
        if largest > MAX_ALLOC {
            failures.push(format!(
                "{decoder:?} {name}: one allocation of {largest} bytes"
            ));
        }
    }
    failures
}

#[test]
fn claimed_lengths_and_counts_buy_no_memory() {
    let pool = ThreadPool::new(2);
    let tiny = PortableTrace::record(&mut Tiny);
    let boundaries = boundary_cases(&tiny);
    let paired = paired_claims(&tiny);
    let mut cases = cases(&[tiny], &[2], false, true);
    cases.extend(paired);
    let mut failures = sweep(&pool, &cases);
    failures.extend(sweep_boundaries(&boundaries));
    assert!(
        failures.is_empty(),
        "{} of {} cases:\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
}

#[test]
#[ignore = "the wide row: scripts/perfgate.sh runs it with -- --ignored"]
fn claimed_lengths_and_counts_buy_no_memory_wide() {
    let pool = ThreadPool::new(2);
    let mut programs = vec![PortableTrace::record(&mut Tiny)];
    for name in NAMES.iter().chain(BUGGY_NAMES.iter()) {
        programs.push(PortableTrace::record(&mut Workload::by_name(
            name,
            Scale::Test,
        )));
    }
    let cases = cases(&programs, &[1, 7, 4096], true, false);
    let failures = sweep(&pool, &cases);
    assert!(
        failures.is_empty(),
        "{} of {} cases:\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
}
