//! The session journal: every lifecycle transition of every session,
//! appended as a checksummed `stint-journal-v1` record (see
//! `stint::journal` for the framing) and mirrored into the obs flight
//! recorder. After a crash, [`SessionJournal::open`] replays the file and
//! reports the sessions that were admitted but never reached a verdict —
//! the daemon's post-mortem answer to "what was in flight".
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
//! Opening a journal with a torn or corrupted tail **repairs** it: the
//! intact prefix is rewritten in place and appending resumes after it, so
//! records written before the damage are never lost and the file never
//! accumulates unparsable bytes mid-stream. The corruption detail is kept
//! in the replay summary for the HEALTH frame and the `journal` CLI.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use stint::journal::{replay, FsyncPolicy, JournalWriter};
use stint::varint;
use stint_obs::Counter;

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
        varint::put(&mut out, self.seq);
        varint::put(&mut out, self.t_ms);
        varint::put(&mut out, u64::from(self.session));
        varint::put(&mut out, u64::from(self.kind));
        varint::put(&mut out, u64::from(self.code));
        varint::put(&mut out, self.payload);
        out
    }

    /// Decode one record payload. Trailing bytes are tolerated (forward
    /// compatibility: a later version may append fields).
    pub fn decode(buf: &[u8]) -> Result<SessionEvent, String> {
        let mut pos = 0usize;
        let mut field = || varint::get(buf, &mut pos).map_err(|e| e.to_string());
        let seq = field()?;
        let t_ms = field()?;
        let session = field()?;
        let kind = field()?;
        let code = field()?;
        let payload = field()?;
        let narrow = |v: u64, what: &str| -> Result<u64, String> {
            if v > u64::from(u32::MAX) {
                Err(format!("{what} out of range: {v}"))
            } else {
                Ok(v)
            }
        };
        Ok(SessionEvent {
            seq,
            t_ms,
            session: narrow(session, "session id")? as u32,
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

    /// Digest raw journal frames (the output of `stint::journal::replay`).
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

/// Replay a journal file into (decoded events, summary). Never panics on
/// damage — the summary carries the corruption detail and the intact
/// prefix. A missing file is a clean empty journal.
pub fn replay_file(path: &Path) -> io::Result<(Vec<SessionEvent>, ReplaySummary)> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let rep = replay(&bytes[..])?;
    let summary = ReplaySummary::from_frames(&rep.records, rep.corruption);
    let events = rep
        .records
        .iter()
        .filter_map(|f| SessionEvent::decode(f).ok())
        .collect();
    Ok((events, summary))
}

/// The live journal the engine appends to: a `stint::journal` writer
/// behind a mutex, plus the replay summary of whatever the file held when
/// it was opened.
pub struct SessionJournal {
    writer: Mutex<JournalWriter>,
    seq: AtomicU64,
    epoch: Instant,
    path: Option<PathBuf>,
    recovered: ReplaySummary,
}

impl SessionJournal {
    /// Open (or create) the journal at `path`. An existing file is
    /// replayed first; a damaged tail is repaired in place (the intact
    /// prefix is rewritten, appending resumes after it) and reported via
    /// [`SessionJournal::recovered`].
    pub fn open(path: &Path, fsync: FsyncPolicy) -> io::Result<SessionJournal> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let rep = replay(&bytes[..])?;
        let recovered = ReplaySummary::from_frames(&rep.records, rep.corruption.clone());
        let writer = if bytes.is_empty() {
            JournalWriter::create(Box::new(File::create(path)?), fsync)?
        } else if rep.is_clean() {
            let f = OpenOptions::new().append(true).open(path)?;
            JournalWriter::append_to(Box::new(f), fsync)
        } else {
            // Repair: rewrite the intact prefix so the damage does not sit
            // mid-stream under new appends.
            let mut w = JournalWriter::create(Box::new(File::create(path)?), fsync)?;
            for frame in &rep.records {
                w.append(frame)?;
            }
            w
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
    /// dropped.
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

#[cfg(test)]
mod tests {
    use super::*;

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
        // Tear the tail and reopen: the damage is reported and repaired.
        let mut bytes = std::fs::read(&path).expect("read");
        let torn = bytes.len() - 2;
        bytes.truncate(torn);
        std::fs::write(&path, &bytes).expect("tear");
        {
            let j = SessionJournal::open(&path, FsyncPolicy::Off).expect("open torn");
            assert!(!j.recovered().is_clean());
            assert_eq!(j.recovered().records, 2, "intact prefix survives");
            j.log(3, EV_ADMITTED, 0, 0);
        }
        // After the repair + append, the file replays clean with 3 records.
        let (events, summary) = replay_file(&path).expect("replay");
        assert!(summary.is_clean(), "{:?}", summary.corruption);
        assert_eq!(summary.records, 3);
        assert_eq!(events.last().map(|e| e.session), Some(3));
        let _ = std::fs::remove_file(&path);
    }
}
