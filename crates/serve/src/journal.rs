//! The session journal: a crash-safe append-only file (`stint-journal-v1`)
//! holding every lifecycle transition of every session, mirrored into the
//! obs flight recorder. After a crash, [`SessionJournal::open`] replays the
//! file and reports the sessions that were admitted but never reached a
//! verdict — the daemon's post-mortem answer to "what was in flight".
//!
//! ## Framing
//!
//! A text magic line, then one checked frame per record, the frame every
//! decoder shares (`stint::wire`, with the v2 trace header and chunks):
//!
//! ```text
//! STINT-JOURNAL v1\n
//! [varint payload_len] [varint fnv1a(payload)] [payload bytes] ...
//! ```
//!
//! [`replay`] recovers every intact record and degrades to a **structured
//! partial answer** on a torn or corrupted tail: it never panics and never
//! drops a record written before the damage. A frame over [`MAX_RECORD`]
//! is corruption, not an allocation.
//!
//! Durability is a knob ([`FsyncPolicy`]): `always` fsyncs every append
//! (a crash loses at most the record being written), `every=N` amortizes,
//! `off` leaves flushing to the OS. A write, flush or fsync error deadens
//! the [`JournalWriter`]: every later append fails naming the first error,
//! so nothing is ever appended behind a torn frame. The one journal fault
//! knob, `serve-journal-kill=N`, is applied inside
//! [`JournalWriter::append`]: it writes half of the Nth record and aborts
//! the process, a real crash with a torn tail.
//!
//! ## Record payload (`SessionEvent`)
//!
//! Six LEB128 varints: `seq`, `t_ms` (milliseconds since the journal was
//! opened), `session`, `kind`, `code`, `payload`. Kinds are the lifecycle
//! transitions below; `code` carries the verdict kind on `verdict`
//! records; `payload` is one context word (queue length on admission,
//! latency ms on verdict, retry hint on busy).
//!
//! | kind | meaning | code | payload |
//! |---|---|---|---|
//! | `admitted` | session entered the queue | 0 | queue length |
//! | `started` | a worker picked it up | 0 | queue-age ms |
//! | `verdict` | session finished | verdict code | latency ms |
//! | `busy` | bounced, queue full | 0 | retry-after ms |
//! | `timeout` | verdict was a wall-clock degrade | 0 | budget ms |
//! | `drained` | daemon drain (session 0) | 0 | sessions completed |
//! | `bye` | bounced, daemon draining | 0 | 0 |
//!
//! ## Repair
//!
//! Opening a journal with a torn or corrupted tail **cuts the tail off**:
//! the file is truncated to its intact prefix ([`Replay::intact_len`]) and
//! appending resumes there. Nothing intact is rewritten, so a crash during
//! the repair cannot lose a record, and the file never carries unparsable
//! bytes mid-stream. The corruption detail is kept in the replay summary
//! for the HEALTH frame and the `journal` CLI.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use stint::journal::FsyncPolicy;
use stint::varint;
use stint::wire::{self, FrameError};
use stint_obs::Counter;

/// Magic first line of every journal file.
pub const MAGIC: &str = "STINT-JOURNAL v1";

/// Upper bound on a single record payload. A flipped bit in a length
/// varint must not cause a giant allocation: anything larger than this is
/// reported as corruption.
pub const MAX_RECORD: u64 = 1 << 20;

/// Byte sink a journal can append to: any `Write` plus an optional
/// durability barrier. Files fsync; in-memory sinks (tests) are already
/// "durable".
pub trait JournalSink: Write + Send {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl JournalSink for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// Append-only writer of checksummed length-prefixed records.
pub struct JournalWriter {
    sink: Box<dyn JournalSink>,
    policy: FsyncPolicy,
    /// Records appended through this writer (drives `every=N` fsync and
    /// the kill knob's record number).
    records: u64,
    /// The first write, flush or fsync error. Once set, the writer appends
    /// nothing more: a frame after a torn one would never replay.
    dead: Option<String>,
}

impl JournalWriter {
    /// Start a **new** journal on `sink`: writes the magic line first.
    pub fn create(
        mut sink: Box<dyn JournalSink>,
        policy: FsyncPolicy,
    ) -> io::Result<JournalWriter> {
        writeln!(sink, "{MAGIC}")?;
        sink.flush()?;
        Ok(JournalWriter::append_to(sink, policy))
    }

    /// Continue an **existing** journal (magic already on disk; `sink`
    /// must be positioned/opened for append).
    fn append_to(sink: Box<dyn JournalSink>, policy: FsyncPolicy) -> JournalWriter {
        JournalWriter {
            sink,
            policy,
            records: 0,
            dead: None,
        }
    }

    /// Records appended through this writer so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Append one record: `[varint len][varint fnv1a][payload]`, then
    /// flush (and fsync per policy). The first I/O error deadens the
    /// writer; a dead writer's appends fail naming that error.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if let Some(first) = &self.dead {
            return Err(io::Error::other(format!("journal is dead: {first}")));
        }
        let n = self.records + 1;
        let mut frame = Vec::with_capacity(payload.len() + 2 * varint::MAX_LEN);
        wire::put_frame(&mut frame, payload);
        if stint_faults::is_active() && stint_faults::serve_journal_kill() == Some(n) {
            // Crash mid-append: half the frame reaches the disk, then the
            // process dies on the spot. Replay must recover every record
            // before this one.
            let _ = self.sink.write_all(&frame[..frame.len() / 2]);
            let _ = self.sink.flush();
            let _ = self.sink.sync();
            std::process::abort();
        }
        let sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Every(k) => n.is_multiple_of(k),
            FsyncPolicy::Off => false,
        };
        let written = self
            .sink
            .write_all(&frame)
            .and_then(|()| self.sink.flush())
            .and_then(|()| if sync { self.sink.sync() } else { Ok(()) });
        if let Err(e) = written {
            self.dead = Some(format!("record {n}: {e}"));
            return Err(e);
        }
        self.records = n;
        Ok(())
    }
}

/// Result of replaying a journal stream: every intact record payload in
/// append order, plus a corruption detail when the tail was damaged.
/// `corruption = None` means the journal read cleanly to EOF.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    pub records: Vec<Vec<u8>>,
    /// What stopped the replay, if anything (torn tail, bad checksum,
    /// oversized frame, bad magic). Records before the damage are always
    /// in `records` — a structured partial answer, never a panic.
    pub corruption: Option<String>,
    /// Byte length of the magic line plus the intact records: where a
    /// repair cuts the file. 0 when the magic line itself is missing or
    /// damaged.
    pub intact_len: u64,
}

impl Replay {
    pub fn is_clean(&self) -> bool {
        self.corruption.is_none()
    }
}

/// Replay a journal byte stream. Only I/O errors from the underlying
/// reader surface as `Err`; every *data* problem (missing magic, torn
/// varint, short payload, checksum mismatch, oversized frame) is reported
/// via [`Replay::corruption`] with the intact prefix in
/// [`Replay::records`]. An empty stream is a clean empty journal.
pub fn replay<R: Read>(mut r: R) -> io::Result<Replay> {
    let mut out = Replay::default();
    // Magic line: read exactly MAGIC.len() + 1 bytes.
    let mut magic = Vec::new();
    let line = MAGIC.len() as u64 + 1;
    match wire::read_payload(&mut r, line, &mut magic) {
        Err(e) if e.kind() != io::ErrorKind::UnexpectedEof => return Err(e),
        _ if magic.is_empty() => return Ok(out), // brand-new journal: clean and empty
        _ if magic != format!("{MAGIC}\n").as_bytes() => {
            out.corruption = Some(format!("bad magic: expected {MAGIC:?} line"));
            return Ok(out);
        }
        _ => out.intact_len = line,
    }
    loop {
        // Probe one byte so EOF exactly on a record boundary is clean.
        let Some(first) = wire::probe(&mut r)? else {
            return Ok(out);
        };
        let mut payload = Vec::new();
        match wire::read_frame(&mut r, Some(first), MAX_RECORD, &mut payload) {
            Ok(took) => {
                out.intact_len += took;
                out.records.push(payload);
            }
            Err(e) => {
                let rec = out.records.len() + 1;
                out.corruption = Some(match e {
                    FrameError::Len(e) => format!("record {rec}: torn length varint ({e})"),
                    FrameError::TooLong { len, .. } => {
                        format!("record {rec}: oversized frame ({len} bytes > {MAX_RECORD})")
                    }
                    FrameError::Sum(e) => format!("record {rec}: torn checksum varint ({e})"),
                    FrameError::Payload(e) => format!("record {rec}: torn payload ({e})"),
                    FrameError::Checksum => format!("record {rec}: checksum mismatch"),
                });
                return Ok(out);
            }
        }
    }
}

/// Journal append I/O failures (the session proceeds; its record is lost).
static OBS_JOURNAL_ERRORS: Counter = Counter::new("serve.journal.errors");
/// Records appended to the session journal.
static OBS_JOURNAL_RECORDS: Counter = Counter::new("serve.journal.records");

// Lifecycle event kinds — shared between the journal records and the
// flight-recorder `kind` field.
pub const EV_ADMITTED: u16 = 1;
pub const EV_STARTED: u16 = 2;
pub const EV_VERDICT: u16 = 3;
pub const EV_BUSY: u16 = 4;
pub const EV_TIMEOUT: u16 = 5;
pub const EV_DRAINED: u16 = 6;
pub const EV_BYE: u16 = 7;

/// Human name of a lifecycle event kind.
pub fn event_name(kind: u16) -> &'static str {
    match kind {
        EV_ADMITTED => "admitted",
        EV_STARTED => "started",
        EV_VERDICT => "verdict",
        EV_BUSY => "busy",
        EV_TIMEOUT => "timeout",
        EV_DRAINED => "drained",
        EV_BYE => "bye",
        _ => "unknown",
    }
}

/// Human name of a verdict code (the `code` field of `verdict` records:
/// the engine's verdict table, by index).
pub fn verdict_name(code: u16) -> &'static str {
    (crate::engine::VERDICTS.get(usize::from(code))).map_or("unknown", |(name, _)| name)
}

/// One decoded journal record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionEvent {
    pub seq: u64,
    /// Milliseconds since the journal epoch (open time of the writer that
    /// appended this record).
    pub t_ms: u64,
    pub session: u32,
    pub kind: u16,
    /// Verdict code on `verdict` records, 0 otherwise.
    pub code: u16,
    /// One context word (see the kind table in the module docs).
    pub payload: u64,
}

impl SessionEvent {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        let (session, kind, code) = (self.session.into(), self.kind.into(), self.code.into());
        for v in [self.seq, self.t_ms, session, kind, code, self.payload] {
            varint::put(&mut out, v);
        }
        out
    }

    /// Decode one record payload. Trailing bytes are tolerated (forward
    /// compatibility: a later version may append fields).
    pub fn decode(buf: &[u8]) -> Result<SessionEvent, String> {
        let (mut pos, mut fields) = (0usize, [0u64; 6]);
        for f in &mut fields {
            *f = varint::get(buf, &mut pos).map_err(|e| e.to_string())?;
        }
        let [seq, t_ms, session, kind, code, payload] = fields;
        let session =
            u32::try_from(session).map_err(|_| format!("session id out of range: {session}"))?;
        Ok(SessionEvent {
            seq,
            t_ms,
            session,
            kind: kind.min(u64::from(u16::MAX)) as u16,
            code: code.min(u64::from(u16::MAX)) as u16,
            payload,
        })
    }
}

/// What a journal replay found: the event-level digest the daemon reports
/// on startup and the `journal` CLI prints.
#[derive(Clone, Debug, Default)]
pub struct ReplaySummary {
    /// Intact records decoded.
    pub records: u64,
    /// Frames that passed the checksum but did not decode as events.
    pub decode_errors: u64,
    /// Framing-level damage detail (torn tail, checksum mismatch, …).
    pub corruption: Option<String>,
    /// Sessions with an `admitted` record.
    pub admitted: BTreeSet<u32>,
    /// Sessions with a `verdict` record.
    pub finished: BTreeSet<u32>,
    /// Busy bounces journaled.
    pub busy_bounced: u64,
    /// Daemon drains journaled.
    pub drains: u64,
    /// Highest session id seen (restart seeds ids above this).
    pub max_session: u32,
    /// Verdict-name → count.
    pub verdicts: BTreeMap<&'static str, u64>,
}

impl ReplaySummary {
    /// Sessions admitted but never finished — what was in flight (queued
    /// or running) when the journal stopped.
    pub fn in_flight(&self) -> BTreeSet<u32> {
        self.admitted.difference(&self.finished).copied().collect()
    }

    pub fn is_clean(&self) -> bool {
        self.corruption.is_none() && self.decode_errors == 0
    }

    /// Fold one event into the digest.
    fn absorb(&mut self, ev: &SessionEvent) {
        self.records += 1;
        self.max_session = self.max_session.max(ev.session);
        match ev.kind {
            EV_ADMITTED => {
                self.admitted.insert(ev.session);
            }
            EV_VERDICT => {
                self.finished.insert(ev.session);
                *self.verdicts.entry(verdict_name(ev.code)).or_insert(0) += 1;
            }
            EV_BUSY => self.busy_bounced += 1,
            EV_DRAINED => self.drains += 1,
            _ => {}
        }
    }

    /// Digest raw journal frames (the output of [`replay`]).
    pub fn from_frames(frames: &[Vec<u8>], corruption: Option<String>) -> ReplaySummary {
        let mut s = ReplaySummary {
            corruption,
            ..ReplaySummary::default()
        };
        for f in frames {
            match SessionEvent::decode(f) {
                Ok(ev) => s.absorb(&ev),
                Err(_) => s.decode_errors += 1,
            }
        }
        s
    }

    /// Multi-line human rendering (the `journal replay` subcommand and the
    /// daemon's startup report).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "records: {}", self.records);
        let _ = writeln!(
            s,
            "clean: {}",
            if self.is_clean() { "true" } else { "false" }
        );
        if let Some(c) = &self.corruption {
            let _ = writeln!(s, "corruption: {c}");
        }
        if self.decode_errors > 0 {
            let _ = writeln!(s, "decode-errors: {}", self.decode_errors);
        }
        let _ = writeln!(s, "admitted: {}", self.admitted.len());
        let _ = writeln!(s, "finished: {}", self.finished.len());
        let _ = writeln!(s, "busy-bounced: {}", self.busy_bounced);
        let _ = writeln!(s, "drains: {}", self.drains);
        let _ = writeln!(s, "max-session: {}", self.max_session);
        for (name, n) in &self.verdicts {
            let _ = writeln!(s, "verdict {name}: {n}");
        }
        let inflight = self.in_flight();
        let _ = writeln!(s, "in-flight: {}", inflight.len());
        if !inflight.is_empty() {
            let ids: Vec<String> = inflight.iter().map(|id| id.to_string()).collect();
            let _ = writeln!(s, "in-flight-ids: {}", ids.join(","));
        }
        s
    }
}

/// Read the journal at `path` (a missing file is a clean empty journal) and
/// replay it: the framing-level result and its event-level digest.
fn read_and_replay(path: &Path) -> io::Result<(Replay, ReplaySummary)> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let rep = replay(&bytes[..])?;
    let summary = ReplaySummary::from_frames(&rep.records, rep.corruption.clone());
    Ok((rep, summary))
}

/// Replay a journal file into (decoded events, summary). Never panics on
/// damage — the summary carries the corruption detail and the intact
/// prefix. A missing file is a clean empty journal.
pub fn replay_file(path: &Path) -> io::Result<(Vec<SessionEvent>, ReplaySummary)> {
    let (rep, summary) = read_and_replay(path)?;
    let events = rep
        .records
        .iter()
        .filter_map(|f| SessionEvent::decode(f).ok())
        .collect();
    Ok((events, summary))
}

/// The live journal the engine appends to: a [`JournalWriter`] behind a
/// mutex, plus the replay summary of whatever the file held when it was
/// opened.
pub struct SessionJournal {
    writer: Mutex<JournalWriter>,
    seq: AtomicU64,
    epoch: Instant,
    path: Option<PathBuf>,
    recovered: ReplaySummary,
}

impl SessionJournal {
    /// Open (or create) the journal at `path`. An existing file is
    /// replayed first; a damaged tail is cut off (the file is truncated to
    /// its intact prefix, appending resumes there) and reported via
    /// [`SessionJournal::recovered`]. A file without an intact magic line
    /// starts over as a new journal.
    pub fn open(path: &Path, fsync: FsyncPolicy) -> io::Result<SessionJournal> {
        let (rep, recovered) = read_and_replay(path)?;
        let writer = if rep.intact_len == 0 {
            JournalWriter::create(Box::new(File::create(path)?), fsync)?
        } else {
            let f = OpenOptions::new().append(true).open(path)?;
            if !rep.is_clean() {
                f.set_len(rep.intact_len)?;
                f.sync_data()?;
            }
            JournalWriter::append_to(Box::new(f), fsync)
        };
        Ok(SessionJournal {
            writer: Mutex::new(writer),
            seq: AtomicU64::new(recovered.records),
            epoch: Instant::now(),
            path: Some(path.to_path_buf()),
            recovered,
        })
    }

    /// What the journal held when it was opened (crash forensics).
    pub fn recovered(&self) -> &ReplaySummary {
        &self.recovered
    }

    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Append one lifecycle event. Journal I/O failure never fails the
    /// session — it is counted (`serve.journal.errors`) and the record is
    /// dropped, as is every later one (the writer is dead).
    pub fn log(&self, session: u32, kind: u16, code: u16, payload: u64) {
        let ev = SessionEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            t_ms: self.epoch.elapsed().as_millis() as u64,
            session,
            kind,
            code,
            payload,
        };
        let frame = ev.encode();
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        match w.append(&frame) {
            Ok(()) => OBS_JOURNAL_RECORDS.incr(),
            Err(_) => OBS_JOURNAL_ERRORS.incr(),
        }
    }

    /// Records appended by *this* process (excludes recovered ones).
    pub fn records_appended(&self) -> u64 {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .records()
    }
}

// The tests build frames byte by byte.
#[cfg(test)]
use stint::wire::fnv1a;

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::{Arc, Mutex};

    /// Sink shared with the test so the writer's exact bytes are readable.
    /// With `fail_at = Some(k)`, the k-th `write` call stores half its
    /// buffer and fails, and the calls after it succeed again: a transient
    /// failure partway through a frame.
    #[derive(Clone, Default)]
    struct SharedVec {
        bytes: Arc<Mutex<Vec<u8>>>,
        writes: u32,
        fail_at: Option<u32>,
    }

    impl SharedVec {
        fn bytes(&self) -> Vec<u8> {
            self.bytes.lock().unwrap_or_else(|e| e.into_inner()).clone()
        }
    }

    impl Write for SharedVec {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            let mut bytes = self.bytes.lock().unwrap_or_else(|e| e.into_inner());
            if self.fail_at == Some(self.writes) {
                bytes.extend_from_slice(&buf[..buf.len() / 2]);
                return Err(io::Error::other("disk full"));
            }
            bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl JournalSink for SharedVec {}

    fn journal_of(payloads: &[&[u8]]) -> Vec<u8> {
        let sink = SharedVec::default();
        let mut w =
            JournalWriter::create(Box::new(sink.clone()), FsyncPolicy::Off).expect("create");
        for p in payloads {
            w.append(p).expect("append");
        }
        assert_eq!(w.records(), payloads.len() as u64);
        sink.bytes()
    }

    #[test]
    fn round_trip() {
        let j = journal_of(&[b"alpha", b"", b"gamma gamma"]);
        let r = replay(&j[..]).expect("replay");
        assert!(r.is_clean(), "{:?}", r.corruption);
        assert_eq!(
            r.records,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma gamma".to_vec()]
        );
        assert_eq!(r.intact_len, j.len() as u64);
    }

    #[test]
    fn empty_stream_is_clean() {
        let r = replay(&[][..]).expect("replay");
        assert!(r.is_clean());
        assert!(r.records.is_empty());
        assert_eq!(r.intact_len, 0);
    }

    #[test]
    fn magic_only_is_clean() {
        let r = replay(format!("{MAGIC}\n").as_bytes()).expect("replay");
        assert!(r.is_clean());
        assert!(r.records.is_empty());
        assert_eq!(r.intact_len, MAGIC.len() as u64 + 1);
    }

    #[test]
    fn bad_magic_is_structured() {
        let r = replay(&b"STINT-JOURNAL v9\nxxxx"[..]).expect("replay");
        assert!(!r.is_clean());
        assert!(r.records.is_empty());
        assert_eq!(r.intact_len, 0);
    }

    #[test]
    fn truncated_tail_keeps_prefix() {
        let payloads: [&[u8]; 3] = [b"first", b"second", b"third"];
        let j = journal_of(&payloads);
        // Byte offsets at which a truncation lands exactly on a record
        // boundary — there the shorter journal is legitimately clean
        // (indistinguishable from fewer appends).
        let mut boundaries = vec![MAGIC.len() + 1];
        for p in &payloads {
            let mut frame = Vec::new();
            varint::put(&mut frame, p.len() as u64);
            varint::put(&mut frame, fnv1a(p));
            let prev = *boundaries.last().expect("nonempty");
            boundaries.push(prev + frame.len() + p.len());
        }
        for cut in 1..j.len() {
            let keep = j.len() - cut;
            let r = replay(&j[..keep]).expect("replay");
            assert!(r.records.len() <= 3);
            // Every recovered record is one of the real ones, in order.
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec, payloads[i], "cut={cut}");
            }
            // The intact length ends the last recovered record.
            if keep > MAGIC.len() {
                assert_eq!(
                    r.intact_len,
                    boundaries[r.records.len()] as u64,
                    "cut={cut}"
                );
            }
            if boundaries.contains(&keep) {
                assert!(r.is_clean(), "boundary cut at {keep} flagged: {r:?}");
                assert_eq!(
                    r.records.len(),
                    boundaries.iter().position(|b| *b == keep).unwrap()
                );
            } else {
                assert!(!r.is_clean(), "mid-record cut at {keep} not flagged");
            }
        }
    }

    #[test]
    fn bit_flip_is_caught() {
        let j = journal_of(&[b"first", b"second"]);
        for i in MAGIC.len() + 1..j.len() {
            let mut damaged = j.clone();
            damaged[i] ^= 0x08;
            let r = replay(&damaged[..]).expect("replay");
            // Either the flip hit a later record (prefix intact) or the
            // replay flagged it; silent full recovery of damaged bytes
            // would mean the checksum missed it.
            if r.is_clean() {
                assert_eq!(r.records.len(), 2, "flip at {i} silently dropped records");
                assert!(
                    r.records == vec![b"first".to_vec(), b"second".to_vec()],
                    "flip at {i} silently altered a record"
                );
            }
        }
    }

    #[test]
    fn oversized_len_is_structured_not_an_allocation() {
        let mut j = Vec::new();
        writeln!(j, "{MAGIC}").unwrap();
        varint::put(&mut j, u64::MAX); // absurd length
        varint::put(&mut j, 0);
        let r = replay(&j[..]).expect("replay");
        assert!(!r.is_clean());
        assert!(r.corruption.as_deref().unwrap_or("").contains("oversized"));

        // A tenth byte above 1 does not fit a u64: a torn frame, not a length.
        let mut j = Vec::new();
        writeln!(j, "{MAGIC}").unwrap();
        j.extend([&[0xff; 9][..], &[0x02]].concat());
        let r = replay(&j[..]).expect("replay");
        assert_eq!(
            r.corruption.as_deref(),
            Some("record 1: torn length varint (varint overflow)")
        );
    }

    /// A sink that fails once, on its k-th write, for every k: each append
    /// that returned `Ok` replays, and every append after the failure fails
    /// too, naming it — nothing lands behind the torn frame.
    #[test]
    fn failed_append_deadens_the_writer() {
        // The magic line takes writes 1 and 2, each record one more: every
        // k fails somewhere.
        let payloads: [&[u8]; 6] = [b"one", b"two two", b"", b"four", b"5", b"six"];
        for k in 1..=8 {
            let sink = SharedVec {
                fail_at: Some(k),
                ..SharedVec::default()
            };
            let Ok(mut w) = JournalWriter::create(Box::new(sink.clone()), FsyncPolicy::Always)
            else {
                assert!(k <= 2, "k={k}: a record's write failed create");
                continue;
            };
            let mut ok = Vec::new();
            let mut first_error: Option<String> = None;
            for p in &payloads {
                match (w.append(p), &first_error) {
                    (Ok(()), None) => ok.push(p.to_vec()),
                    (Ok(()), Some(e)) => panic!("k={k}: append succeeded after {e}"),
                    (Err(e), None) => first_error = Some(e.to_string()),
                    (Err(e), Some(first)) => {
                        assert!(e.to_string().contains(first.as_str()), "k={k}: {e}")
                    }
                }
            }
            assert_eq!(w.records(), ok.len() as u64, "k={k}");
            let r = replay(&sink.bytes()[..]).expect("replay");
            assert_eq!(r.records, ok, "k={k}: an acknowledged record is lost");
        }
    }

    #[test]
    fn event_codec_round_trips() {
        let ev = SessionEvent {
            seq: 42,
            t_ms: 123_456,
            session: 7,
            kind: EV_VERDICT,
            code: 1,
            payload: 99,
        };
        assert_eq!(SessionEvent::decode(&ev.encode()), Ok(ev));
        let short = &ev.encode()[..3];
        assert_eq!(SessionEvent::decode(short), Err("truncated varint".into()));
        let overlong = [&[0xff; 9][..], &[0x02]].concat();
        assert_eq!(
            SessionEvent::decode(&overlong),
            Err("varint overflow".into())
        );
    }

    #[test]
    fn summary_computes_in_flight_as_admitted_minus_finished() {
        let mk = |session, kind, code| SessionEvent {
            seq: 0,
            t_ms: 0,
            session,
            kind,
            code,
            payload: 0,
        };
        let frames: Vec<Vec<u8>> = [
            mk(1, EV_ADMITTED, 0),
            mk(2, EV_ADMITTED, 0),
            mk(3, EV_ADMITTED, 0),
            mk(1, EV_STARTED, 0),
            mk(1, EV_VERDICT, 0),
            mk(4, EV_BUSY, 0),
            mk(2, EV_STARTED, 0),
        ]
        .iter()
        .map(|e| e.encode())
        .collect();
        let s = ReplaySummary::from_frames(&frames, None);
        assert_eq!(s.records, 7);
        assert!(s.is_clean());
        assert_eq!(s.in_flight(), BTreeSet::from([2, 3]));
        assert_eq!(s.busy_bounced, 1);
        assert_eq!(s.max_session, 4);
        assert_eq!(s.verdicts.get("ok"), Some(&1));
        let shown = s.render();
        assert!(shown.contains("in-flight: 2"), "{shown}");
        assert!(shown.contains("in-flight-ids: 2,3"), "{shown}");
    }

    #[test]
    fn open_replay_repair_cycle() {
        let dir = std::env::temp_dir().join(format!("stint-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("j1.journal");
        let _ = std::fs::remove_file(&path);
        {
            let j = SessionJournal::open(&path, FsyncPolicy::Off).expect("open fresh");
            assert!(j.recovered().is_clean());
            assert_eq!(j.recovered().records, 0);
            j.log(1, EV_ADMITTED, 0, 0);
            j.log(1, EV_VERDICT, 0, 12);
            j.log(2, EV_ADMITTED, 0, 1);
            assert_eq!(j.records_appended(), 3);
        }
        // Reopen: session 2 is in flight.
        {
            let j = SessionJournal::open(&path, FsyncPolicy::Off).expect("reopen");
            assert_eq!(j.recovered().records, 3);
            assert_eq!(j.recovered().in_flight(), BTreeSet::from([2]));
        }
        // Tear the tail and reopen: the damage is reported and cut off,
        // and the intact prefix stays byte for byte.
        let mut bytes = std::fs::read(&path).expect("read");
        let torn = bytes.len() - 2;
        bytes.truncate(torn);
        std::fs::write(&path, &bytes).expect("tear");
        let intact = replay(&bytes[..]).expect("replay torn").intact_len as usize;
        {
            let j = SessionJournal::open(&path, FsyncPolicy::Off).expect("open torn");
            assert!(!j.recovered().is_clean());
            assert_eq!(j.recovered().records, 2, "intact prefix survives");
            assert_eq!(std::fs::read(&path).expect("read cut"), bytes[..intact]);
            j.log(3, EV_ADMITTED, 0, 0);
        }
        // After the cut + append, the file replays clean with 3 records.
        let (events, summary) = replay_file(&path).expect("replay");
        assert!(summary.is_clean(), "{:?}", summary.corruption);
        assert_eq!(summary.records, 3);
        assert_eq!(events.last().map(|e| e.session), Some(3));
        let _ = std::fs::remove_file(&path);
    }
}
