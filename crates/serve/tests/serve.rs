//! In-process tests of the detection service: engine verdicts for every
//! status, backpressure, panic isolation, timeouts, and the framed
//! transport's malformed-frame and HEALTH answers. The `stint-serve` binary
//! over both transports is `daemon.rs`'s.
//!
//! Fault plans and the engine totals are process-global, so every test
//! serializes on one lock (the same idiom as the repo-level chaos tests).

use std::io::Write;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use stint::{Cilk, CilkProgram, FaultPlan, PortableTrace, ScopedPlan};
use stint_serve::protocol::{self, Request, Response, SessionOpts, Status};
use stint_serve::server::run_frames;
use stint_serve::{Engine, EngineConfig};
use stint_suite::{Scale, Workload};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A minimal hand-written racy v1 trace: strands 1 and 2 have crossed
/// English/Hebrew ranks (parallel) and both write word 0x10.
const RACY_V1: &str = "STINT-TRACE v1\nstrands 3\n0 0\n1 2\n2 1\nevents 4\n\
                       s 1 0x40 4\ne 1 0x0 0\ns 2 0x40 4\ne 2 0x0 0\n";

fn clean_v1() -> Vec<u8> {
    let mut w = Workload::by_name("sort", Scale::Test);
    let pt = PortableTrace::record(&mut w);
    let mut buf = Vec::new();
    pt.save(&mut buf).expect("save v1");
    buf
}

fn racy_v2() -> Vec<u8> {
    let pt = PortableTrace::load_any(RACY_V1.as_bytes()).expect("parse racy v1");
    let mut buf = Vec::new();
    pt.save_compressed(&mut buf, 2).expect("save v2");
    buf
}

/// Submit one session and wait for its reply.
fn session(engine: &Engine, opts: &str, trace: Vec<u8>) -> Response {
    let (tx, rx) = mpsc::channel();
    let id = engine.try_submit(opts.to_string(), trace, tx);
    let resp = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("session reply");
    assert_eq!(resp.session, id);
    resp
}

fn small_engine() -> Engine {
    Engine::new(EngineConfig {
        session_workers: 2,
        queue_depth: 16,
        pool_workers: 2,
        ..EngineConfig::default()
    })
}

#[test]
fn verdicts_cover_the_status_enum() {
    let _g = lock();
    let engine = small_engine();
    // Clean trace → Ok with an empty report.
    let r = session(&engine, "", clean_v1());
    assert_eq!(r.status, Status::Ok, "payload: {}", r.payload);
    assert!(r.payload.contains("kind: ok"));
    assert!(r.payload.contains("races: 0"));
    // Racy v1 → Racy, and the canonical report names the racy word.
    let r = session(&engine, "shards=2", RACY_V1.as_bytes().to_vec());
    assert_eq!(r.status, Status::Racy);
    assert!(r.payload.contains("kind: racy"));
    assert!(r.payload.contains("w 0x10"), "payload: {}", r.payload);
    // The same trace in the compressed v2 encoding streams to the same
    // verdict and the same rendered report.
    let r2 = session(&engine, "shards=2", racy_v2());
    assert_eq!(r2.status, Status::Racy);
    let report = |p: &str| p.split("report:\n").nth(1).map(str::to_string);
    assert_eq!(report(&r.payload), report(&r2.payload));
    // Garbage bytes → Corrupt (kind corrupt).
    let r = session(&engine, "", b"not a trace at all".to_vec());
    assert_eq!(r.status, Status::Corrupt);
    assert!(r.payload.contains("kind: corrupt"));
    // Truncated v2 → Corrupt, not a panic or a hang.
    let mut cut = racy_v2();
    cut.truncate(cut.len() / 2);
    let r = session(&engine, "", cut);
    assert_eq!(r.status, Status::Corrupt);
    // Bad option spec → Usage naming the offending token.
    let r = session(&engine, "shards=2,frobnicate=1", clean_v1());
    assert_eq!(r.status, Status::Usage);
    assert!(
        r.payload.contains("\"frobnicate=1\""),
        "payload: {}",
        r.payload
    );
    // An already-expired wall-clock budget → Degraded with a sound partial
    // report, never a wedged worker.
    let r = session(&engine, "timeout-ms=0", racy_v2());
    assert_eq!(r.status, Status::Degraded, "payload: {}", r.payload);
    assert!(r.payload.contains("kind: degraded"));
    assert!(r.payload.contains("wall-clock budget"));
    let t = engine.totals();
    assert_eq!(t.sessions, 7);
    assert_eq!(t.ok, 1);
    assert_eq!(t.racy, 2);
    assert_eq!(t.corrupt, 2);
    assert_eq!(t.usage, 1);
    assert_eq!(t.degraded, 1);
    engine.drain();
}

/// A stall longer than the session's deadline ends at the deadline: the
/// client is answered `degraded` in about `timeout-ms`, not after
/// `stall-ms`, so no client can hold a session worker past its budget.
#[test]
fn stall_is_bounded_by_the_session_deadline() {
    let _g = lock();
    let engine = small_engine();
    let (tx, rx) = mpsc::channel();
    let id = engine.try_submit(
        "stall-ms=60000,timeout-ms=50".into(),
        RACY_V1.as_bytes().to_vec(),
        tx,
    );
    let r = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("a 60 s stall under a 50 ms deadline is answered within 5 s");
    assert_eq!(
        (r.session, r.status),
        (id, Status::Degraded),
        "{}",
        r.payload
    );
    assert!(r.payload.contains("wall-clock budget"), "{}", r.payload);
    engine.drain();
}

#[test]
fn shadow_budget_degrades_the_session() {
    let _g = lock();
    let engine = small_engine();
    let r = session(&engine, "max-intervals=1", clean_v1());
    assert_eq!(r.status, Status::Degraded, "payload: {}", r.payload);
    assert!(r.payload.contains("error:"), "payload: {}", r.payload);
    engine.drain();
}

/// The queue cap at cap − 1, cap and cap + 1: with the one worker held by a
/// stalled session, exactly `queue_depth` submissions are admitted and every
/// later one bounces at once with Busy instead of growing the queue.
#[test]
fn backpressure_answers_busy_with_retry_hint() {
    const DEPTH: usize = 3;
    let _g = lock();
    let engine = Engine::new(EngineConfig {
        session_workers: 1,
        queue_depth: DEPTH,
        pool_workers: 1,
        retry_after_ms: 7,
        ..EngineConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let trace = clean_v1();
    engine.try_submit("stall-ms=500".into(), trace.clone(), tx.clone());
    let t0 = std::time::Instant::now();
    while engine.queue_len() > 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "never dequeued");
        std::thread::yield_now();
    }
    for queued in 1..=DEPTH {
        engine.try_submit(String::new(), trace.clone(), tx.clone());
        assert_eq!(engine.queue_len(), queued);
        assert!(rx.try_recv().is_err(), "submission {queued} answered");
    }
    let mut busy = 0u64;
    for _ in 0..5 {
        let id = engine.try_submit(String::new(), trace.clone(), tx.clone());
        let resp = rx.try_recv().expect("a full queue answers at once");
        assert_eq!((resp.session, resp.status), (id, Status::Busy));
        assert!(
            resp.payload.contains("retry-after-ms: 7"),
            "payload: {}",
            resp.payload
        );
        assert_eq!(engine.queue_len(), DEPTH);
        busy += 1;
    }
    drop(tx);
    let mut done = 0;
    while let Ok(resp) = rx.recv_timeout(Duration::from_secs(60)) {
        assert_eq!(resp.status, Status::Ok, "payload: {}", resp.payload);
        done += 1;
    }
    assert_eq!(done, 1 + DEPTH, "every admitted session is answered");
    assert_eq!(engine.totals().busy, busy);
    engine.drain();
}

#[test]
fn injected_session_panics_poison_only_their_session() {
    let _g = lock();
    let engine = small_engine();
    // Session ids are engine-global and monotonic; period 1 panics every
    // session while the plan is installed.
    let plan = FaultPlan {
        serve_panic_session: Some(1),
        ..FaultPlan::default()
    };
    let poisoned = {
        let _plan = ScopedPlan::install(plan);
        session(&engine, "", clean_v1())
    };
    assert_eq!(poisoned.status, Status::Corrupt);
    assert!(
        poisoned.payload.contains("kind: poisoned"),
        "payload: {}",
        poisoned.payload
    );
    assert!(poisoned.payload.contains("injected serve session panic"));
    // The worker survived: the very next session (plan dropped) is clean.
    let r = session(&engine, "", clean_v1());
    assert_eq!(r.status, Status::Ok);
    let t = engine.totals();
    assert_eq!(t.poisoned, 1);
    assert_eq!(t.ok, 1);
    engine.drain();
}

/// Concurrent mixed traffic through a saturated queue while every tenth
/// session panics: every logical session gets exactly one terminal answer
/// (`busy` bounces resubmitted), and no racy payload is ever answered `ok`
/// — degraded and poisoned answers are flagged, a lost race would be silent.
#[test]
fn saturated_mixed_traffic_under_panics_loses_no_race_and_no_session() {
    const SESSIONS: usize = 200;
    let _g = lock();
    let _plan = ScopedPlan::install(FaultPlan {
        serve_panic_session: Some(10),
        ..FaultPlan::default()
    });
    let engine = small_engine();
    let mut cut = clean_v1();
    cut.truncate(cut.len() / 2);
    // (options, payload, holds a race)
    let mix = [
        ("", clean_v1(), false),
        ("shards=2", RACY_V1.as_bytes().to_vec(), true),
        ("", racy_v2(), true),
        ("", cut, false),
        ("timeout-ms=0", racy_v2(), true),
        ("frobnicate=1", clean_v1(), false),
    ];
    let (tx, rx) = mpsc::channel();
    let submit = |slot: usize| {
        let (opts, trace, _) = &mix[slot % mix.len()];
        (
            engine.try_submit(opts.to_string(), trace.clone(), tx.clone()),
            slot,
        )
    };
    // Open loop: 200 submissions against 2 workers and 16 queue slots.
    let mut slot_of: std::collections::HashMap<u32, usize> = (0..SESSIONS).map(submit).collect();
    let (mut answered, mut busy) = (0, 0u64);
    while answered < SESSIONS {
        let resp = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a session was never answered");
        let slot = slot_of
            .remove(&resp.session)
            .expect("reply for an unknown or already answered session");
        if resp.status == Status::Busy {
            busy += 1;
            std::thread::yield_now();
            let (id, slot) = submit(slot);
            slot_of.insert(id, slot);
            continue;
        }
        answered += 1;
        assert_ne!(resp.status, Status::Bye, "slot {slot}");
        let racy = mix[slot % mix.len()].2;
        assert!(
            !(racy && resp.status == Status::Ok),
            "slot {slot}: a racy payload was answered ok:\n{}",
            resp.payload
        );
    }
    assert!(slot_of.is_empty(), "unanswered: {slot_of:?}");
    assert!(busy > 0, "the queue never saturated");
    let t = engine.totals();
    assert_eq!(t.sessions, SESSIONS as u64, "admitted != logical sessions");
    assert_eq!(t.busy, busy);
    assert_eq!(
        t.ok + t.racy + t.usage + t.degraded + t.corrupt + t.poisoned,
        t.sessions
    );
    // Ten consecutive ids are admitted before the queue can fill.
    assert!(t.poisoned > 0 && t.racy > 0, "{t:?}");
    engine.drain();
}

#[test]
fn witness_opt_attaches_counted_witnesses() {
    let _g = lock();
    let engine = small_engine();
    // Opt in: the reply counts captures, says how many rode the wire, and
    // the rendered report carries the witness evidence (` w ... order=`).
    let r = session(&engine, "witness=1,shards=2", RACY_V1.as_bytes().to_vec());
    assert_eq!(r.status, Status::Racy, "payload: {}", r.payload);
    assert!(r.payload.contains("witnesses: 1"), "payload: {}", r.payload);
    assert!(r.payload.contains("witnesses-shown: 1"));
    assert!(r.payload.contains(" order="), "payload: {}", r.payload);
    // Witnesses are merge-invariant: a different shard count produces a
    // byte-identical witnessed report.
    let r2 = session(&engine, "witness=1,shards=7", RACY_V1.as_bytes().to_vec());
    let report = |p: &str| p.split("report:\n").nth(1).map(str::to_string);
    assert_eq!(report(&r.payload), report(&r2.payload));
    // Off (default and explicit witness=0): no witness lines, no evidence.
    for opts in ["", "witness=0"] {
        let r = session(&engine, opts, RACY_V1.as_bytes().to_vec());
        assert_eq!(r.status, Status::Racy);
        assert!(!r.payload.contains("witnesses:"), "payload: {}", r.payload);
        assert!(!r.payload.contains(" order="));
    }
    engine.drain();
}

/// Two parallel strands each write words 0, 2, …, 2(n−1): `n` racy words
/// a word apart, so `n` merged regions, each with its own witness.
struct RacyPairs(usize);

impl CilkProgram for RacyPairs {
    fn run<C: Cilk>(&mut self, ctx: &mut C) {
        let n = self.0;
        ctx.spawn(|c| (0..n).for_each(|i| c.store(8 * i, 4)));
        (0..n).for_each(|i| ctx.store(8 * i, 4));
        ctx.sync();
    }
}

/// The reply's witness cap at cap − 1, cap and cap + 1 regions: every
/// captured witness is counted, at most 64 ride the wire, and a region past
/// the cap keeps its record and loses only its witness.
#[test]
fn witness_cap_holds_at_its_boundary() {
    let _g = lock();
    let engine = small_engine();
    for n in [63, 64, 65] {
        let mut trace = Vec::new();
        let pt = PortableTrace::record(&mut RacyPairs(n));
        pt.save_compressed(&mut trace, 4096).expect("save v2");
        let r = session(&engine, "witness=1", trace);
        assert_eq!(r.status, Status::Racy, "payload: {}", r.payload);
        assert!(r.payload.contains(&format!("\nwitnesses: {n}\n")));
        let shown = n.min(64);
        assert!(r.payload.contains(&format!("\nwitnesses-shown: {shown}\n")));
        let report = r.payload.split_once("report:\n").expect("a report").1;
        let regions: Vec<&str> = report.lines().filter(|l| l.contains(") prev ")).collect();
        assert_eq!(regions.len(), n, "n={n}: every region keeps its record");
        let witnessed = regions.iter().filter(|l| l.contains(" order=")).count();
        assert_eq!(witnessed, shown, "n={n}");
    }
    engine.drain();
}

/// The frame length cap at cap − 1, cap and cap + 1: a length past it is
/// refused before any payload is read, naming the cap; one within it is read
/// and, on a short stream, fails in the payload.
#[test]
fn frame_cap_holds_at_its_boundary() {
    use protocol::{read_request, FrameError, MAX_FRAME, REQ_DETECT};
    for len in [MAX_FRAME - 1, MAX_FRAME, MAX_FRAME + 1] {
        let mut frame = vec![REQ_DETECT];
        frame.extend_from_slice(&(len as u32).to_le_bytes());
        frame.extend_from_slice(b"short");
        let Err(FrameError::Malformed(m)) = read_request(&mut &frame[..]) else {
            panic!("len {len}: a short stream must be malformed");
        };
        let want = match len > MAX_FRAME {
            true => format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
            false => "truncated frame: EOF in the payload".to_string(),
        };
        assert_eq!(m, want, "len {len}");
    }
}

#[test]
fn draining_engine_answers_bye() {
    let _g = lock();
    let engine = small_engine();
    engine.drain();
    let (tx, rx) = mpsc::channel();
    engine.try_submit(String::new(), clean_v1(), tx);
    let resp = rx.recv_timeout(Duration::from_secs(10)).expect("reply");
    assert_eq!(resp.status, Status::Bye);
}

/// A drain racing the session workers' start-up still joins them all: a
/// worker between its empty-queue check and its wait must not miss the
/// drain's wake-up and sleep forever.
#[test]
fn drain_racing_worker_startup_joins_every_worker() {
    let _g = lock();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..2000 {
            let cfg = EngineConfig {
                session_workers: 4,
                pool_workers: 1,
                ..EngineConfig::default()
            };
            Engine::new(cfg).drain();
        }
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("a drain never returned");
}

/// `Write` sink shareable with the writer thread.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn decode_all(bytes: &[u8]) -> Vec<Response> {
    let mut r = bytes;
    let mut out = Vec::new();
    while let Some(resp) = protocol::read_response(&mut r).expect("well-formed response stream") {
        out.push(resp);
    }
    out
}

#[test]
fn malformed_frame_answers_usage_and_abandons_the_stream() {
    let _g = lock();
    let engine = Arc::new(small_engine());
    // A DETECT frame truncated mid-payload.
    let mut frames = Vec::new();
    protocol::write_request(
        &mut frames,
        &Request::Detect {
            opts: String::new(),
            trace: clean_v1(),
        },
    )
    .expect("frame");
    frames.truncate(frames.len() - 10);
    let sink = SharedBuf::default();
    let shutdown = run_frames(&engine, &frames[..], sink.clone(), false).expect("serve");
    assert!(!shutdown);
    let out = sink.0.lock().unwrap_or_else(|e| e.into_inner());
    let resps = decode_all(&out);
    assert_eq!(resps.len(), 1);
    assert_eq!(resps[0].status, Status::Usage);
    assert!(
        resps[0].payload.contains("truncated frame"),
        "payload: {}",
        resps[0].payload
    );
    engine.drain();
}

#[test]
fn session_opts_reject_is_stable_through_the_wire() {
    // Round-trip guard: the opts grammar the server parses is the one the
    // client helpers document.
    let spec = "shards=2,timeout-ms=50,max-intervals=1000,stall-ms=0";
    let o = SessionOpts::parse(spec).expect("parse");
    assert_eq!(o.shards, Some(2));
    assert_eq!(o.timeout_ms, Some(50));
    let e = SessionOpts::parse("timeout-ms=soon").expect_err("reject");
    assert_eq!(e.token, "timeout-ms=soon");
}

#[test]
fn health_frame_reports_the_operational_snapshot() {
    let _g = lock();
    let engine = Arc::new(small_engine());
    // A completed session gives the latency histograms something to report
    // when obs is on; with obs off the payload simply omits those lines.
    let resp = session(&engine, "", RACY_V1.as_bytes().to_vec());
    assert_eq!(resp.status, Status::Racy);
    let mut frames = Vec::new();
    protocol::write_request(&mut frames, &Request::Health).expect("frame");
    let sink = SharedBuf::default();
    run_frames(&engine, &frames[..], sink.clone(), false).expect("serve health");
    let out = sink.0.lock().unwrap_or_else(|e| e.into_inner());
    let resps = decode_all(&out);
    assert_eq!(resps.len(), 1);
    assert_eq!(resps[0].status, Status::Ok);
    let payload = &resps[0].payload;
    for want in [
        "kind: health",
        "uptime-ms: ",
        "draining: false",
        "queued: 0",
        "queue-age-hw-ms: ",
        "retry-after-ms: ",
        "in-flight: 0",
        "journal: off",
        "flight-records: ",
    ] {
        assert!(
            payload.contains(want),
            "health payload missing {want:?}:\n{payload}"
        );
    }
    engine.drain();
}

#[test]
fn journaled_engine_survives_a_lifecycle_round_trip() {
    let _g = lock();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("serve_lifecycle_{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journal = stint_serve::SessionJournal::open(&path, stint::journal::FsyncPolicy::Always)
        .expect("open journal");
    let engine = Engine::with_journal(
        EngineConfig {
            session_workers: 1,
            queue_depth: 16,
            pool_workers: 1,
            ..EngineConfig::default()
        },
        Some(journal),
    );
    assert_eq!(session(&engine, "", clean_v1()).status, Status::Ok);
    assert_eq!(
        session(&engine, "", RACY_V1.as_bytes().to_vec()).status,
        Status::Racy
    );
    engine.drain();
    drop(engine);

    let (events, summary) = stint_serve::journal::replay_file(&path).expect("replay");
    assert!(summary.is_clean(), "summary:\n{}", summary.render());
    assert_eq!(summary.admitted.len(), 2);
    assert_eq!(summary.finished.len(), 2);
    assert!(summary.in_flight().is_empty());
    assert_eq!(summary.drains, 1);
    assert_eq!(summary.verdicts.get("ok"), Some(&1));
    assert_eq!(summary.verdicts.get("racy"), Some(&1));
    // admitted always hits the journal before started, started before the
    // verdict — per session, in submission order under one worker.
    let kinds: Vec<u16> = events.iter().map(|e| e.kind).collect();
    use stint_serve::journal::{EV_ADMITTED, EV_DRAINED, EV_STARTED, EV_VERDICT};
    assert_eq!(kinds[0], EV_ADMITTED);
    assert!(kinds
        .windows(2)
        .all(|w| w[0] != EV_STARTED || w[1] != EV_STARTED));
    assert_eq!(kinds.last().copied(), Some(EV_DRAINED));
    assert_eq!(
        kinds.iter().filter(|&&k| k == EV_VERDICT).count(),
        2,
        "events: {events:?}"
    );

    // A second engine on the same path replays it and continues the id
    // sequence.
    let journal = stint_serve::SessionJournal::open(&path, stint::journal::FsyncPolicy::Always)
        .expect("reopen journal");
    assert_eq!(journal.recovered().records, summary.records);
    let engine = Engine::with_journal(EngineConfig::default(), Some(journal));
    let resp = session(&engine, "", clean_v1());
    assert!(resp.session > summary.max_session);
    engine.drain();
    let _ = std::fs::remove_file(&path);
}
