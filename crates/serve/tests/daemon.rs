//! The `stint-serve` binary end to end, driven the way an operator drives
//! it: `frame` builds a request stream, `serve --stdio` answers it and
//! `decode` prints the answers; a unix-socket daemon serves one-shot `send`
//! clients under the 0–4 exit-code contract and drains on `--shutdown`; the
//! ops flags leave a journal, a Prometheus text file and a flight dump that
//! read back. The engine's in-process properties are `serve.rs`'s.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::time::{Duration, Instant};

use stint::PortableTrace;
use stint_obs::json::{parse, Value};
use stint_suite::{Scale, Workload};

/// Strands 1 and 2 have crossed English/Hebrew ranks (parallel) and both
/// write word 0x10.
const RACY_V1: &str = "STINT-TRACE v1\nstrands 3\n0 0\n1 2\n2 1\nevents 4\n\
                       s 1 0x40 4\ne 1 0x0 0\ns 2 0x40 4\ne 2 0x0 0\n";

fn serve(args: &[&str]) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_stint-serve"));
    c.env_remove("STINT_FAULTS")
        .env_remove("STINT_OBS")
        .args(args);
    c
}

/// Run `stint-serve args` to completion with `input` on its stdin (fed
/// from a thread, so a child that answers while it reads cannot deadlock).
fn run(args: &[&str], input: &[u8]) -> Output {
    let mut child = serve(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn stint-serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let input = input.to_vec();
    let feeder = std::thread::spawn(move || stdin.write_all(&input));
    let out = child.wait_with_output().expect("wait for stint-serve");
    feeder.join().expect("stdin feeder").expect("write stdin");
    out
}

/// Exit code, stdout and stderr of a finished run.
fn parts(out: &Output) -> (i32, String, String) {
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    let code = out.status.code().expect("no exit code (killed by signal?)");
    (code, text(&out.stdout), text(&out.stderr))
}

/// `text` contains every one of `wants`.
fn assert_has(text: &str, wants: &[&str]) {
    for want in wants {
        assert!(text.contains(want), "missing {want:?}:\n{text}");
    }
}

/// One request frame: `stint-serve frame ARGS...`.
fn frame(args: &[&str]) -> Vec<u8> {
    let out = run(&[&["frame"][..], args].concat(), b"");
    assert!(out.status.success(), "frame {args:?}: {:?}", parts(&out));
    out.stdout
}

/// `serve --stdio FLAGS` over the concatenated `frames`, its answers through
/// `decode`: the decoded text and the daemon's stderr.
fn converse(flags: &[&str], frames: &[Vec<u8>]) -> (String, String) {
    let served = run(
        &[&["serve", "--stdio"][..], flags].concat(),
        &frames.concat(),
    );
    let (code, _, err) = parts(&served);
    assert_eq!(code, 0, "serve: {err}");
    let (code, decoded, derr) = parts(&run(&["decode"], &served.stdout));
    assert_eq!(code, 0, "decode: {derr}");
    (decoded, err)
}

/// The statuses `decode` printed for detect sessions (id > 0), sorted.
fn answers(conv: &str) -> Vec<&str> {
    let detects = conv.lines().filter(|l| l.starts_with("-- session "));
    let detects = detects.filter(|l| !l.starts_with("-- session 0:"));
    let mut statuses: Vec<&str> = detects.filter_map(|l| l.rsplit(' ').next()).collect();
    statuses.sort_unstable();
    statuses
}

/// A scratch directory holding the trace corpus — `clean.trace` (v1) and
/// `clean.ctrace` (v2) of sort, `racy.trace`, and `bad.trace`, the first
/// half of the clean v1 file — removed when dropped.
struct Corpus(PathBuf);

impl Corpus {
    fn new(test: &str) -> Corpus {
        let dir = std::env::temp_dir().join(format!("stint-serve-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let pt = PortableTrace::record(&mut Workload::by_name("sort", Scale::Test));
        let (mut v1, mut v2) = (Vec::new(), Vec::new());
        pt.save(&mut v1).expect("save v1");
        pt.save_compressed(&mut v2, 4096).expect("save v2");
        let write = |name: &str, bytes: &[u8]| std::fs::write(dir.join(name), bytes);
        write("clean.trace", &v1).expect("write v1");
        write("clean.ctrace", &v2).expect("write v2");
        write("racy.trace", RACY_V1.as_bytes()).expect("write racy");
        write("bad.trace", &v1[..v1.len() / 2]).expect("write bad");
        Corpus(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("utf-8 path").to_string()
    }
}

impl Drop for Corpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One framed stdio conversation answers every status a session can get,
/// plus the transport's own pong, stats and bye: the reader answers PING and
/// STATS inline, detects answer on completion, and the drain flushes every
/// session's reply before the `bye`.
#[test]
fn stdio_conversation_answers_every_status() {
    let c = Corpus::new("stdio");
    let (clean, clean2) = (c.path("clean.trace"), c.path("clean.ctrace"));
    let (racy, bad) = (c.path("racy.trace"), c.path("bad.trace"));
    let (conv, _) = converse(
        &[],
        &[
            frame(&["ping"]),
            frame(&["detect", &clean]),
            frame(&["detect", "--opts", "shards=2", &clean2]),
            frame(&["detect", &racy]),
            frame(&["detect", &bad]),
            frame(&["detect", "--opts", "frobnicate", &clean]),
            frame(&["detect", "--opts", "timeout-ms=0", &clean2]),
            frame(&["stats"]),
            frame(&["shutdown"]),
        ],
    );
    // Sessions finish in completion order; PING and STATS are answered
    // inline, so the pong comes first, and the drain ends with the bye.
    let detects = ["corrupt", "degraded", "ok", "ok", "racy", "usage"];
    assert_eq!(answers(&conv), detects, "{conv}");
    assert_eq!(conv.matches("-- session ").count(), 9, "{conv}");
    let pong = "-- session 0: ok\n   kind: pong\n";
    let bye = "-- session 0: bye\n   kind: bye\n";
    assert!(conv.starts_with(pong) && conv.ends_with(bye), "{conv}");
    // STATS is answered while sessions run: its shape, not its counts.
    let stats = ["kind: stats", "session-workers: 2", "queued: "];
    assert_has(&conv, &stats);
    assert_has(&conv, &["w 0x10"]); // the racy session's report
}

/// One worker and a one-slot queue: the sessions that do not fit bounce
/// `busy` with a retry hint, and the admitted ones are still served.
#[test]
fn saturated_daemon_answers_busy_with_retry_after() {
    let c = Corpus::new("busy");
    let stalled = frame(&["detect", "--opts", "stall-ms=100", &c.path("racy.trace")]);
    let flags = ["--session-workers", "1", "--queue-depth", "1"];
    let (conv, _) = converse(&flags, &vec![stalled; 6]);
    // Sorted, the bounces come first and every session after them is served.
    let got = answers(&conv);
    let busy = got.iter().take_while(|&&s| s == "busy").count();
    let served = got[busy..].iter().all(|&s| s == "racy");
    assert!(got.len() == 6 && (1..6).contains(&busy) && served, "{conv}");
    assert_has(&conv, &["retry-after-ms: "]);
}

/// `frame detect` takes exactly one FILE, and neither it nor `send` reads
/// an unknown flag as a file: each is a usage error (exit 2) naming the
/// token, before any frame is written or socket dialled.
#[test]
fn frame_and_send_reject_a_second_file_and_unknown_flags() {
    let c = Corpus::new("operands");
    let (racy, clean) = (c.path("racy.trace"), c.path("clean.trace"));
    let (racy, clean) = (racy.as_str(), clean.as_str());
    let sock = c.path("absent.sock");
    for (args, names) in [
        (vec!["frame", "detect", racy, clean], vec![racy, clean]),
        (vec!["frame", "detect", "--bogus", racy], vec!["--bogus"]),
        (vec!["frame", "detect", racy, "--bogus"], vec!["--bogus"]),
        (vec!["send", "--socket", &sock, "--bogus"], vec!["--bogus"]),
        (vec!["send", "--socket", &sock, racy, "-x"], vec!["-x"]),
    ] {
        let (code, out, err) = parts(&run(&args, b""));
        assert_eq!(code, 2, "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?} wrote {out:?}");
        let first = err.lines().next().unwrap_or_default();
        for name in names {
            assert!(first.contains(&format!("{name:?}")), "{args:?}: {err}");
        }
    }
}

/// Kills the daemon if the test fails before it shut down.
struct Daemon(Child);

impl Daemon {
    /// Wait at most `limit` for the daemon to exit.
    fn exit_within(&mut self, limit: Duration) -> Option<ExitStatus> {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if let Some(status) = self.0.try_wait().expect("poll the daemon") {
                return Some(status);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        None
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The unix-socket transport: one-shot `send` clients get the 0–4
/// exit-code contract, `send --shutdown` is answered `bye`, and the daemon
/// drains, exits 0 and removes its socket file.
#[test]
fn socket_daemon_serves_send_and_drains_on_shutdown() {
    let c = Corpus::new("socket");
    let sock = c.path("serve.sock");
    let mut daemon = serve(&["serve", "--socket", &sock, "--idle-timeout-ms", "5000"]);
    let daemon = daemon.stdout(Stdio::null()).stderr(Stdio::null()).spawn();
    let mut daemon = Daemon(daemon.expect("spawn the daemon"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !Path::new(&sock).exists() {
        assert!(Instant::now() < deadline, "the daemon never bound {sock}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let send = |args: &[&str]| {
        parts(&run(
            &[&["send", "--socket", &sock][..], args].concat(),
            b"",
        ))
    };

    let (code, out, err) = send(&["--ping", &c.path("clean.trace")]);
    assert_eq!((code, answers(&out)), (0, vec!["ok"]), "{err}");
    assert_has(&out, &["kind: pong"]);
    let (code, out, err) = send(&[&c.path("racy.trace")]);
    assert_eq!((code, answers(&out)), (1, vec!["racy"]), "{err}");
    let (code, out, err) = send(&["--shutdown"]);
    assert_eq!(code, 0, "shutdown: {out}{err}");
    assert_has(&out, &["-- session 0: bye"]);

    let status = daemon.exit_within(Duration::from_secs(10));
    assert!(
        status.is_some_and(|s| s.success()),
        "daemon exit: {status:?}"
    );
    assert!(!Path::new(&sock).exists(), "socket file left behind");
}

/// The ops flags on a real daemon: HEALTH answers, the journal reads back
/// clean through `journal inspect|replay` and is replayed on restart, the
/// post-drain Prometheus text and flight dump read back, and a torn
/// journal tail is a structured partial answer with exit 1.
#[test]
fn ops_plane_round_trips_through_journal_prometheus_and_flight_dump() {
    let c = Corpus::new("ops");
    let (journal, prom, flight) = (c.path("j"), c.path("prom"), c.path("flight"));
    let outputs = [
        "--journal",
        &journal,
        "--prom-out",
        &prom,
        "--flight-dump",
        &flight,
    ];
    let (conv, _) = converse(
        &[
            &["--obs", "full", "--journal-fsync", "every=8"][..],
            &outputs,
        ]
        .concat(),
        &[
            frame(&["health"]),
            frame(&["detect", &c.path("clean.trace")]),
            frame(&["detect", &c.path("racy.trace")]),
            frame(&["shutdown"]),
        ],
    );
    assert_has(
        &conv,
        &[
            "kind: health",
            "uptime-ms: ",
            "journal: ",
            ": racy",
            ": bye",
        ],
    );

    let (code, inspect, _) = parts(&run(&["journal", "inspect", &journal], b""));
    assert_eq!(code, 0, "{inspect}");
    assert_has(
        &inspect,
        &[
            "clean: true",
            "in-flight: 0",
            "verdict ok: 1",
            "verdict racy: 1",
        ],
    );
    let (code, replay, _) = parts(&run(&["journal", "replay", &journal], b""));
    assert_eq!(code, 0, "{replay}");
    assert_has(&replay, &[" verdict "]);

    // Every sample carries a number (the exposition's full rules are
    // stint-obs's `prometheus_exposition_is_well_formed`).
    let text = std::fs::read_to_string(&prom).expect("read the prometheus file");
    assert_has(&text, &["# TYPE serve_"]);
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let value = line.rsplit_once(' ').map(|(_, v)| v.parse::<f64>());
        assert!(
            matches!(value, Some(Ok(_))),
            "sample without a value: {line:?}"
        );
    }
    let dump = std::fs::read_to_string(&flight).expect("read the flight dump");
    let dump = parse(&dump).unwrap_or_else(|e| panic!("flight dump: {e}"));
    let schema = dump.get("schema").and_then(Value::as_str);
    let records = dump.get("records").and_then(Value::as_array);
    assert_eq!(schema, Some("stint-flight-v1"));
    assert!(
        records.is_some_and(|r| !r.is_empty()),
        "an empty flight ring"
    );

    // A restarted daemon replays the journal it reopens and says so.
    let (_, err) = converse(&["--journal", &journal], &[frame(&["ping"])]);
    assert_has(&err, &["journal replay"]);

    let bytes = std::fs::read(&journal).expect("read the journal");
    let torn = c.path("torn");
    std::fs::write(&torn, &bytes[..bytes.len() - 3]).expect("tear the tail");
    let (code, inspect, _) = parts(&run(&["journal", "inspect", &torn], b""));
    assert_eq!(code, 1, "{inspect}");
    assert_has(&inspect, &["corruption: "]);
    assert!(
        !inspect.contains("records: 0\n"),
        "the intact prefix is lost"
    );
}
