//! Wire protocol: length-prefixed frames and session option specs.
//!
//! ## Request frames
//!
//! ```text
//! [1 byte type] [u32 LE payload len] [payload]
//! ```
//!
//! | type | name     | payload                                           |
//! |------|----------|---------------------------------------------------|
//! | 0x01 | DETECT   | `[u16 LE opts len][opts utf-8][trace bytes]`      |
//! | 0x02 | STATS    | empty — answers engine totals + obs registry      |
//! | 0x03 | SHUTDOWN | empty — graceful drain, answered with `Bye`       |
//! | 0x04 | PING     | empty — liveness probe, answered with `Ok`        |
//! | 0x05 | HEALTH   | empty — uptime, queue, in-flight set, latencies   |
//!
//! The trace bytes of a DETECT frame are either format: the v1 text trace
//! or the compressed chunked v2 trace, sniffed by magic on the server.
//!
//! ## Response frames
//!
//! ```text
//! [1 byte status] [u32 LE session id] [u32 LE payload len] [payload]
//! ```
//!
//! The payload is human-readable `key: value` text ending with the
//! canonical batch report (see [`crate::engine`]). Sessions complete out of
//! order under concurrency — the session id is the correlation key.
//!
//! Every malformed input — unknown frame type, oversized length, EOF in the
//! middle of a frame, non-UTF-8 options — is a structured
//! [`FrameError::Malformed`], never a panic and never a busy-loop; the
//! server answers `Usage` and abandons the desynchronized stream.

use std::io::{self, Read, Write};

use stint::wire;

/// Hard cap on a single frame payload. Counting the trace bytes, anything
/// bigger than this should be streamed from disk by the client in chunks
/// (or is an attack); the reader refuses it without allocating, and below
/// it reserves only as the payload's bytes arrive.
pub const MAX_FRAME: usize = 256 * 1024 * 1024;

pub const REQ_DETECT: u8 = 0x01;
pub const REQ_STATS: u8 = 0x02;
pub const REQ_SHUTDOWN: u8 = 0x03;
pub const REQ_PING: u8 = 0x04;
pub const REQ_HEALTH: u8 = 0x05;

/// One client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    Detect {
        opts: String,
        trace: Vec<u8>,
    },
    Stats,
    Shutdown,
    Ping,
    /// Liveness + operational snapshot: uptime, queue-age watermark,
    /// in-flight session set, and latency quantiles.
    Health,
}

/// Per-response status byte — the framed analogue of the CLI exit codes
/// 0–4, plus the two transport-level statuses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Session completed, no races.
    Ok = 0,
    /// Session completed, races found (full report in the payload).
    Racy = 1,
    /// Bad request: malformed frame or session option spec.
    Usage = 2,
    /// Budget or wall-clock limit hit; the report is sound but partial.
    Degraded = 3,
    /// Corrupt trace, or a poisoned (panicked) session — the payload's
    /// `kind:` line distinguishes the two, exactly like CLI exit 4.
    Corrupt = 4,
    /// Admission queue full; payload carries `retry-after-ms: N`.
    Busy = 5,
    /// Server is draining / acknowledging shutdown.
    Bye = 6,
}

impl Status {
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The status a response's first byte names, if any.
    pub fn from_code(c: u8) -> Option<Status> {
        use Status::{Busy, Bye, Corrupt, Degraded, Racy, Usage};
        [Status::Ok, Racy, Usage, Degraded, Corrupt, Busy, Bye]
            .get(usize::from(c))
            .copied()
    }

    /// Map the status back onto the CLI exit-code contract (`send` exits
    /// with the worst status it saw). `Busy` is a resource limit (3); `Bye`
    /// is a clean 0.
    pub fn exit_code(self) -> u8 {
        match self {
            Status::Ok | Status::Bye => 0,
            Status::Racy => 1,
            Status::Usage => 2,
            Status::Degraded | Status::Busy => 3,
            Status::Corrupt => 4,
        }
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Status::Ok => "ok",
            Status::Racy => "racy",
            Status::Usage => "usage",
            Status::Degraded => "degraded",
            Status::Corrupt => "corrupt",
            Status::Busy => "busy",
            Status::Bye => "bye",
        })
    }
}

/// One server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub status: Status,
    /// Correlates with the DETECT that started the session; 0 for
    /// transport-level responses (ping, stats, usage, bye).
    pub session: u32,
    pub payload: String,
}

impl Response {
    pub fn new(status: Status, session: u32, payload: impl Into<String>) -> Response {
        Response {
            status,
            session,
            payload: payload.into(),
        }
    }
}

/// A frame that could not be read. `Malformed` covers every adversarial
/// shape — truncation mid-frame, unknown type bytes, lengths past
/// [`MAX_FRAME`], non-UTF-8 option strings; `Io` is a real transport error
/// (including an idle-timeout expiry, surfaced as `WouldBlock`/`TimedOut`).
#[derive(Debug)]
pub enum FrameError {
    Io(io::Error),
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// `read`'s result, an EOF mid-structure made `Malformed` — a truncated
/// frame is the sender's fault, not a transport failure.
fn eof_is_malformed(read: io::Result<()>, what: &str) -> Result<(), FrameError> {
    read.map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Malformed(format!("truncated frame: EOF {what}"))
        } else {
            FrameError::Io(e)
        }
    })
}

/// The frame's `[u32 LE len][payload]`. The length is a claim: the payload
/// buffer grows as its bytes arrive (`stint::wire::read_payload`).
fn read_body(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut b = [0u8; 4];
    eof_is_malformed(r.read_exact(&mut b), "in the length header")?;
    let len = u32::from_le_bytes(b) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Malformed(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut payload = Vec::new();
    let read = wire::read_payload(r, len as u64, &mut payload);
    eof_is_malformed(read, "in the payload")?;
    Ok(payload)
}

/// Read one request frame. `Ok(None)` is clean end-of-stream.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, FrameError> {
    // A clean end between frames is `None`; inside one, `Malformed`.
    let Some(ty) = wire::probe(r)? else {
        return Ok(None);
    };
    let mut payload = read_body(r)?;
    match ty {
        REQ_DETECT => {
            if payload.len() < 2 {
                return Err(FrameError::Malformed(
                    "DETECT payload shorter than its options header".into(),
                ));
            }
            let opts_len = u16::from_le_bytes([payload[0], payload[1]]) as usize;
            if payload.len() < 2 + opts_len {
                return Err(FrameError::Malformed(format!(
                    "DETECT options length {opts_len} overruns the {}-byte payload",
                    payload.len()
                )));
            }
            let opts = std::str::from_utf8(&payload[2..2 + opts_len])
                .map_err(|e| FrameError::Malformed(format!("DETECT options not UTF-8: {e}")))?
                .to_string();
            let trace = payload.split_off(2 + opts_len);
            Ok(Some(Request::Detect { opts, trace }))
        }
        REQ_STATS => Ok(Some(Request::Stats)),
        REQ_SHUTDOWN => Ok(Some(Request::Shutdown)),
        REQ_PING => Ok(Some(Request::Ping)),
        REQ_HEALTH => Ok(Some(Request::Health)),
        other => Err(FrameError::Malformed(format!(
            "unknown request type {other:#04x}"
        ))),
    }
}

/// Serialize one request frame. Session opts longer than their `u16`
/// length field, or a frame longer than [`MAX_FRAME`], are an
/// [`io::ErrorKind::InvalidInput`] error, and nothing is written.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    let ty = match req {
        Request::Detect { .. } => REQ_DETECT,
        Request::Stats => REQ_STATS,
        Request::Shutdown => REQ_SHUTDOWN,
        Request::Ping => REQ_PING,
        Request::Health => REQ_HEALTH,
    };
    let Request::Detect { opts, trace } = req else {
        return w.write_all(&[ty, 0, 0, 0, 0]); // the type and an empty payload
    };
    let opts = opts.as_bytes();
    let len = 2 + opts.len() + trace.len();
    if opts.len() > u16::MAX as usize || len > MAX_FRAME {
        let (n, max) = (opts.len(), u16::MAX);
        let what = format!("{len}-byte DETECT frame, {n}-byte opts (caps {MAX_FRAME}, {max})");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, what));
    }
    w.write_all(&[ty])?;
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&(opts.len() as u16).to_le_bytes())?;
    w.write_all(opts)?;
    w.write_all(trace)
}

/// Read one response frame. `Ok(None)` is clean end-of-stream.
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>, FrameError> {
    let Some(code) = wire::probe(r)? else {
        return Ok(None);
    };
    let status = Status::from_code(code)
        .ok_or_else(|| FrameError::Malformed(format!("unknown status byte {code:#04x}")))?;
    let mut sid = [0u8; 4];
    eof_is_malformed(r.read_exact(&mut sid), "in the session id")?;
    let payload = String::from_utf8(read_body(r)?)
        .map_err(|e| FrameError::Malformed(format!("response payload not UTF-8: {e}")))?;
    Ok(Some(Response {
        status,
        session: u32::from_le_bytes(sid),
        payload,
    }))
}

/// Serialize one response frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    w.write_all(&[resp.status.code()])?;
    w.write_all(&resp.session.to_le_bytes())?;
    w.write_all(&(resp.payload.len() as u32).to_le_bytes())?;
    w.write_all(resp.payload.as_bytes())?;
    Ok(())
}

/// A malformed session option spec, carrying the exact offending token —
/// the serve-side analogue of `stint_faults::FaultParseError`, answered
/// with [`Status::Usage`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptParseError {
    pub token: String,
    pub reason: String,
}

impl std::fmt::Display for OptParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad session opt token {:?}: {}", self.token, self.reason)
    }
}

impl std::error::Error for OptParseError {}

/// Per-session knobs, carried in the DETECT frame as a comma-separated
/// `key=value` spec (same grammar as fault plans):
///
/// | token              | effect                                           |
/// |--------------------|--------------------------------------------------|
/// | `shards=K`         | address shards for the batch fan-out (default 4) |
/// | `timeout-ms=N`     | wall-clock budget; 0 = already expired (testing) |
/// | `max-intervals=N`  | interval-store budget per shard detector         |
/// | `stall-ms=N`       | sleep before detecting, at most until the        |
/// |                    | deadline — deterministic slow-session simulation |
/// |                    | for backpressure/timeout tests                   |
/// | `witness=0\|1`     | capture verifiable witnesses with each reported  |
/// |                    | race (off by default; replies carry a witness    |
/// |                    | count and size-capped witness detail)            |
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionOpts {
    pub shards: Option<usize>,
    pub timeout_ms: Option<u64>,
    pub max_intervals: Option<u64>,
    pub stall_ms: Option<u64>,
    pub witness: bool,
}

impl SessionOpts {
    /// Parse a spec string. The empty string is the default configuration;
    /// any unknown or malformed token is a typed error naming that token.
    pub fn parse(spec: &str) -> Result<SessionOpts, OptParseError> {
        let mut o = SessionOpts::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let err = |reason: String| OptParseError {
                token: part.to_string(),
                reason,
            };
            let (key, val) = match part.split_once('=') {
                Some((k, v)) => (k.trim(), v.trim()),
                None => return Err(err("expected key=value".into())),
            };
            let num = || -> Result<u64, OptParseError> {
                val.parse::<u64>()
                    .map_err(|_| err(format!("{val:?} is not a number")))
            };
            match key {
                "shards" => {
                    let n = num()?;
                    if n == 0 || n > 4096 {
                        return Err(err("shards must be in 1..=4096".into()));
                    }
                    o.shards = Some(n as usize);
                }
                "timeout-ms" => o.timeout_ms = Some(num()?),
                "max-intervals" => o.max_intervals = Some(num()?),
                "stall-ms" => o.stall_ms = Some(num()?),
                "witness" => {
                    o.witness = match num()? {
                        0 => false,
                        1 => true,
                        _ => return Err(err("witness must be 0 or 1".into())),
                    }
                }
                _ => return Err(err("unknown session opt".into())),
            }
        }
        Ok(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        let reqs = [
            Request::Detect {
                opts: "shards=2,timeout-ms=100".into(),
                trace: b"STINT-TRACE v1\n...".to_vec(),
            },
            Request::Detect {
                opts: String::new(),
                trace: Vec::new(),
            },
            Request::Stats,
            Request::Shutdown,
            Request::Ping,
            Request::Health,
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            write_request(&mut buf, r).expect("write");
        }
        let mut r = &buf[..];
        for want in &reqs {
            let got = read_request(&mut r).expect("read").expect("some");
            assert_eq!(&got, want);
        }
        assert!(read_request(&mut r).expect("eof").is_none());
    }

    /// Opts past their `u16` length field are refused, not cut or panicked
    /// on, and nothing reaches the writer.
    #[test]
    fn overlong_opts_are_an_input_error() {
        let (mut buf, opts) = (Vec::new(), "x".repeat(u16::MAX as usize + 1));
        let e = write_request(
            &mut buf,
            &Request::Detect {
                opts,
                trace: vec![],
            },
        );
        assert_eq!(e.expect_err("too long").kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty());
    }

    #[test]
    fn response_frames_round_trip() {
        let resps = [
            Response::new(Status::Racy, 7, "kind: racy\nraces: 1\n"),
            Response::new(Status::Busy, 9, "retry-after-ms: 25\n"),
            Response::new(Status::Bye, 0, ""),
        ];
        let mut buf = Vec::new();
        for r in &resps {
            write_response(&mut buf, r).expect("write");
        }
        let mut r = &buf[..];
        for want in &resps {
            let got = read_response(&mut r).expect("read").expect("some");
            assert_eq!(&got, want);
        }
        assert!(read_response(&mut r).expect("eof").is_none());
    }

    #[test]
    fn adversarial_frames_are_structured_errors() {
        // Truncation at every prefix of a valid frame: clean EOF at offset
        // 0, Malformed everywhere inside the frame. Never a panic.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request::Detect {
                opts: "shards=2".into(),
                trace: b"hello".to_vec(),
            },
        )
        .expect("write");
        for cut in 0..buf.len() {
            let got = read_request(&mut &buf[..cut]);
            if cut == 0 {
                assert!(matches!(got, Ok(None)), "cut=0 is clean EOF");
            } else {
                assert!(
                    matches!(got, Err(FrameError::Malformed(_))),
                    "cut={cut} must be malformed"
                );
            }
        }
        // Unknown type byte.
        let bad = [0x7f, 0, 0, 0, 0];
        assert!(matches!(
            read_request(&mut &bad[..]),
            Err(FrameError::Malformed(_))
        ));
        // Length past the cap — refused before allocating.
        let mut huge = vec![REQ_DETECT];
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_request(&mut &huge[..]),
            Err(FrameError::Malformed(_))
        ));
        // Opts length overruns the payload.
        let mut overrun = vec![REQ_DETECT];
        overrun.extend_from_slice(&3u32.to_le_bytes());
        overrun.extend_from_slice(&[0xff, 0xff, b'x']);
        assert!(matches!(
            read_request(&mut &overrun[..]),
            Err(FrameError::Malformed(_))
        ));
        // Non-UTF-8 options.
        let mut bad_utf8 = vec![REQ_DETECT];
        bad_utf8.extend_from_slice(&3u32.to_le_bytes());
        bad_utf8.extend_from_slice(&[1, 0, 0xff]);
        assert!(matches!(
            read_request(&mut &bad_utf8[..]),
            Err(FrameError::Malformed(_))
        ));
    }

    /// A frame whose header promises more payload than follows is a
    /// desync the reader reports, never garbage it returns.
    #[test]
    fn truncated_response_is_detected() {
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::new(Status::Ok, 1, "kind: ok\n")).expect("write");
        buf.truncate(buf.len() - 5);
        assert!(matches!(
            read_response(&mut &buf[..]),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn session_opts_parse_and_reject() {
        let o =
            SessionOpts::parse(" shards=8 , timeout-ms=250,stall-ms=5,witness=1 ").expect("parse");
        assert_eq!(o.shards, Some(8));
        assert_eq!(o.timeout_ms, Some(250));
        assert_eq!(o.stall_ms, Some(5));
        assert!(o.witness);
        assert!(!SessionOpts::parse("witness=0").expect("parse").witness);
        assert_eq!(SessionOpts::parse(""), Ok(SessionOpts::default()));
        for (spec, tok) in [
            ("shards=0", "shards=0"),
            ("shards=abc", "shards=abc"),
            ("frobnicate=1", "frobnicate=1"),
            ("timeout-ms", "timeout-ms"),
            ("shards=2,waldo=9", "waldo=9"),
            ("witness=2", "witness=2"),
            ("max-shadow-mb=1", "max-shadow-mb=1"),
        ] {
            let e = SessionOpts::parse(spec).expect_err(spec);
            assert_eq!(e.token, tok, "spec {spec:?}");
            assert!(!e.reason.is_empty());
            assert!(e.to_string().contains(tok));
        }
    }
}
