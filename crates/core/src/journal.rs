//! Crash-safe append-only journal framing (`stint-journal-v1`).
//!
//! The serve daemon appends one checksummed record per session lifecycle
//! transition; after a crash, [`replay`] recovers every intact record and
//! degrades to a **structured partial answer** on a torn or corrupted
//! tail — it never panics and never drops records written before the
//! damage. The encoding reuses the `ctrace` idiom: a text magic line,
//! then length-prefixed binary frames
//!
//! ```text
//! STINT-JOURNAL v1\n
//! [varint payload_len] [varint fnv1a(payload)] [payload bytes] ...
//! ```
//!
//! LEB128 varints ([`crate::varint`]) and FNV-1a 64 (`ctrace::fnv1a`)
//! exactly as in the compressed trace encoding. Record payloads are opaque
//! here — the serve crate defines the session-event codec on top.
//!
//! Durability is a knob ([`FsyncPolicy`]): `always` fsyncs every append
//! (crash loses at most the record being written), `every=N` amortizes,
//! `off` leaves flushing to the OS. The `serve-journal-kill/trunc/flip`
//! fault knobs are applied *inside* [`JournalWriter::append`] so the
//! chaos suite can prove torn-tail recovery end to end: `kill` aborts the
//! process mid-append, `trunc` writes a half record and deadens the
//! journal, `flip` damages one bit of a record and deadens the journal
//! (deadening keeps the injected damage at the tail, mirroring a real
//! crash).

use std::fs::File;
use std::io::{self, Read, Write};

use crate::ctrace::fnv1a;
use crate::varint;

/// Magic first line of every journal file.
pub const MAGIC: &str = "STINT-JOURNAL v1";

/// Upper bound on a single record payload. A flipped bit in a length
/// varint must not cause a giant allocation: anything larger than this is
/// reported as corruption.
pub const MAX_RECORD: u64 = 1 << 20;

/// When the journal file is flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record — a crash loses at most the record being
    /// appended (the default).
    Always,
    /// fsync every Nth record.
    Every(u64),
    /// Never fsync; flushing is left to the OS page cache.
    Off,
}

impl FsyncPolicy {
    /// Parse a `--journal-fsync` spec: `always`, `off`, or `every=N`
    /// (N ≥ 1).
    pub fn parse(spec: &str) -> Result<FsyncPolicy, String> {
        match spec.trim() {
            "always" => Ok(FsyncPolicy::Always),
            "off" => Ok(FsyncPolicy::Off),
            other => match other.split_once('=') {
                Some(("every", n)) => match n.trim().parse::<u64>() {
                    Ok(n) if n >= 1 => Ok(FsyncPolicy::Every(n)),
                    _ => Err(format!("bad fsync period {n:?} (want an integer ≥ 1)")),
                },
                _ => Err(format!(
                    "unknown fsync policy {other:?} (want always, off, or every=N)"
                )),
            },
        }
    }
}

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

impl JournalSink for Vec<u8> {}
impl JournalSink for io::Sink {}

/// Append-only writer of checksummed length-prefixed records.
pub struct JournalWriter {
    sink: Box<dyn JournalSink>,
    policy: FsyncPolicy,
    /// Records appended through this writer (drives `every=N` fsync and
    /// the fault-knob record counters).
    records: u64,
    /// Set when an injected torn-tail fault has fired: the journal stops
    /// appending so the damage stays at the tail, like a real crash.
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
        Ok(JournalWriter {
            sink,
            policy,
            records: 0,
            dead: None,
        })
    }

    /// Continue an **existing** journal (magic already on disk; `sink`
    /// must be positioned/opened for append).
    pub fn append_to(sink: Box<dyn JournalSink>, policy: FsyncPolicy) -> JournalWriter {
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

    /// Why this writer stopped appending, if an injected tail fault fired.
    pub fn dead_reason(&self) -> Option<&str> {
        self.dead.as_deref()
    }

    /// Append one record: `[varint len][varint fnv1a][payload]`, then
    /// flush (and fsync per policy). Applies the `serve-journal-*` fault
    /// knobs; after an injected `trunc`/`flip` the writer goes dead and
    /// later appends are silently dropped (the damage must stay the tail).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.dead.is_some() {
            return Ok(());
        }
        let n = self.records + 1;
        let mut frame = Vec::with_capacity(payload.len() + 12);
        varint::put(&mut frame, payload.len() as u64);
        varint::put(&mut frame, fnv1a(payload));
        frame.extend_from_slice(payload);
        if stint_faults::is_active() {
            if stint_faults::serve_journal_kill() == Some(n) {
                // Crash mid-append: half the frame reaches the disk, then
                // the process dies on the spot. Replay must recover every
                // record before this one.
                let half = &frame[..frame.len() / 2];
                let _ = self.sink.write_all(half);
                let _ = self.sink.flush();
                let _ = self.sink.sync();
                std::process::abort();
            }
            if stint_faults::serve_journal_trunc() == Some(n) {
                let half = &frame[..frame.len() / 2];
                self.sink.write_all(half)?;
                self.sink.flush()?;
                self.sink.sync()?;
                self.dead = Some(format!("injected torn tail at record {n}"));
                return Ok(());
            }
            if stint_faults::serve_journal_flip() == Some(n) {
                let mid = frame.len() / 2;
                frame[mid] ^= 0x10;
                self.sink.write_all(&frame)?;
                self.sink.flush()?;
                self.sink.sync()?;
                self.dead = Some(format!("injected bit flip in record {n}"));
                return Ok(());
            }
        }
        self.sink.write_all(&frame)?;
        self.sink.flush()?;
        self.records = n;
        match self.policy {
            FsyncPolicy::Always => self.sink.sync()?,
            FsyncPolicy::Every(k) if n.is_multiple_of(k) => self.sink.sync()?,
            _ => {}
        }
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
    let mut magic = vec![0u8; MAGIC.len() + 1];
    let mut got = 0usize;
    while got < magic.len() {
        match r.read(&mut magic[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if got == 0 {
        return Ok(out); // brand-new journal: clean and empty
    }
    if got < magic.len() || &magic[..MAGIC.len()] != MAGIC.as_bytes() || magic[MAGIC.len()] != b'\n'
    {
        out.corruption = Some(format!("bad magic: expected {MAGIC:?} line"));
        return Ok(out);
    }
    loop {
        // Probe one byte so EOF exactly on a record boundary is clean.
        let mut first = [0u8; 1];
        match r.read(&mut first) {
            Ok(0) => return Ok(out),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        let rec = out.records.len() + 1;
        let len = match varint::read_cont(&mut r, first[0]) {
            Ok(v) => v,
            Err(e) => {
                out.corruption = Some(format!("record {rec}: torn length varint ({e})"));
                return Ok(out);
            }
        };
        if len > MAX_RECORD {
            out.corruption = Some(format!(
                "record {rec}: oversized frame ({len} bytes > {MAX_RECORD})"
            ));
            return Ok(out);
        }
        let sum = match varint::read(&mut r) {
            Ok((v, _)) => v,
            Err(e) => {
                out.corruption = Some(format!("record {rec}: torn checksum varint ({e})"));
                return Ok(out);
            }
        };
        let mut payload = vec![0u8; len as usize];
        if let Err(e) = r.read_exact(&mut payload) {
            out.corruption = Some(format!("record {rec}: torn payload ({e})"));
            return Ok(out);
        }
        if fnv1a(&payload) != sum {
            out.corruption = Some(format!("record {rec}: checksum mismatch"));
            return Ok(out);
        }
        out.records.push(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::{Arc, Mutex};

    /// Sink shared with the test so the writer's exact bytes are readable.
    #[derive(Clone, Default)]
    struct SharedVec(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedVec {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap_or_else(|e| e.into_inner()).write(buf)
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
        let bytes = sink.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
        bytes
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
    }

    #[test]
    fn empty_stream_is_clean() {
        let r = replay(&[][..]).expect("replay");
        assert!(r.is_clean());
        assert!(r.records.is_empty());
    }

    #[test]
    fn magic_only_is_clean() {
        let r = replay(format!("{MAGIC}\n").as_bytes()).expect("replay");
        assert!(r.is_clean());
        assert!(r.records.is_empty());
    }

    #[test]
    fn bad_magic_is_structured() {
        let r = replay(&b"STINT-JOURNAL v9\nxxxx"[..]).expect("replay");
        assert!(!r.is_clean());
        assert!(r.records.is_empty());
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

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("off"), Ok(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("every=8"), Ok(FsyncPolicy::Every(8)));
        assert!(FsyncPolicy::parse("every=0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }
}
