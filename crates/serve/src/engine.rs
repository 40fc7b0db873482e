//! The session engine: a bounded admission queue, a fixed crew of session
//! workers, and one shared work-stealing pool.
//!
//! ## Lifecycle of a session
//!
//! ```text
//! submit ──(queue full)──► Busy + retry-after-ms
//!    │
//!    ▼ queued (serve.queue_bytes)
//!  worker pops ── catch_unwind ► run_session (serve.inflight)
//!    │   parse opts ──(bad token)──► Usage
//!    │   batch_detect_any: v2 → stream chunks / v1 → load / else → Corrupt
//!    │   detect under SessionLimits on the shared cilkrt pool
//!    ▼
//!  reply: Ok | Racy | Degraded (partial report) | Corrupt (kind corrupt
//!         or poisoned)
//! ```
//!
//! ## Degradation matrix
//!
//! | failure                     | status     | payload `kind:` | report?  |
//! |-----------------------------|------------|-----------------|----------|
//! | wall-clock timeout          | `Degraded` | `degraded`      | partial  |
//! | interval budget             | `Degraded` | `degraded`      | partial  |
//! | session panic               | `Corrupt`  | `poisoned`      | none     |
//! | unparsable / truncated trace| `Corrupt`  | `corrupt`       | none     |
//! | bad option spec             | `Usage`    | `usage`         | none     |
//! | queue full                  | `Busy`     | `busy`          | none     |
//!
//! A panic unwinding out of a session is caught by the worker, mapped
//! through [`DetectorError::from_panic`], and answered like any other
//! failure — the worker thread, its queue neighbors, and the shared pool
//! all survive. The `serve.inflight` and `serve.queue_bytes` gauges are
//! balanced outside the unwind boundary, so they reconcile to zero after
//! every drain even when sessions time out or poison themselves.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stint::{DetectorError, ResourceBudget};
use stint_batchdet::{batch_detect_any, BatchConfig, SessionLimits};
use stint_cilkrt::ThreadPool;
use stint_obs::{flight, Counter, Gauge, Histogram};

use crate::journal::{
    ReplaySummary, SessionJournal, EV_ADMITTED, EV_BUSY, EV_BYE, EV_DRAINED, EV_STARTED,
    EV_TIMEOUT, EV_VERDICT,
};
use crate::protocol::{Response, SessionOpts, Status};

static OBS_SESSIONS: Counter = Counter::new("serve.sessions");
/// Sessions by verdict, indexed by `Verdict as usize`.
static OBS_VERDICTS: [Counter; VERDICTS.len()] = [
    Counter::new("serve.sessions.ok"),
    Counter::new("serve.sessions.racy"),
    Counter::new("serve.sessions.usage"),
    Counter::new("serve.sessions.degraded"),
    Counter::new("serve.sessions.corrupt"),
    Counter::new("serve.sessions.poisoned"),
];
static OBS_BUSY: Counter = Counter::new("serve.busy");
/// Witnesses captured across all sessions that opted in (`witness=1`);
/// counts captures, not wire deliveries — the reply strips detail past
/// [`MAX_WIRE_WITNESSES`] but the counter sees everything.
static OBS_WITNESSES: Counter = Counter::new("serve.witnesses");
/// Witness-detail cap per DETECT reply: races past this keep their record
/// but lose the attached witness, bounding reply-frame growth.
const MAX_WIRE_WITNESSES: usize = 64;
/// Bytes of trace payload sitting in the admission queue. Bounded by
/// `queue_depth × frame cap`; back to zero after every drain.
static OBS_QUEUE_BYTES: Gauge = Gauge::new("serve.queue_bytes");
/// Sessions currently executing on workers.
static OBS_INFLIGHT: Gauge = Gauge::new("serve.inflight");
/// Per-verdict session latency (admission to verdict, milliseconds),
/// indexed by `Verdict as usize`. The daemon-side ground truth the offline
/// driver's client-side percentiles are cross-checked against.
static OBS_LATENCY: [Histogram; VERDICTS.len()] = [
    Histogram::new("serve.latency_ms.ok"),
    Histogram::new("serve.latency_ms.racy"),
    Histogram::new("serve.latency_ms.usage"),
    Histogram::new("serve.latency_ms.degraded"),
    Histogram::new("serve.latency_ms.corrupt"),
    Histogram::new("serve.latency_ms.poisoned"),
];
/// How long jobs sat in the admission queue before a worker picked them
/// up (milliseconds).
static OBS_QUEUE_AGE: Histogram = Histogram::new("serve.queue_age_ms");

/// Daemon-level configuration (per-session knobs ride in the DETECT frame).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Session workers: concurrent sessions in flight.
    pub session_workers: usize,
    /// Admission queue capacity; a full queue answers `Busy`.
    pub queue_depth: usize,
    /// Threads of the shared detection pool (all sessions fan out on it —
    /// `ThreadPool::install` is safe from concurrent external threads).
    pub pool_workers: usize,
    /// Wall-clock budget for sessions that do not pick their own.
    pub default_timeout_ms: u64,
    /// Floor of the `retry-after-ms` hint carried in `Busy` responses; the
    /// hint itself is measured from the drain rate (and is the floor until
    /// a session has completed).
    pub retry_after_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            session_workers: 2,
            queue_depth: 64,
            pool_workers: 2,
            default_timeout_ms: 10_000,
            retry_after_ms: 25,
        }
    }
}

/// Monotonic totals, kept in plain atomics so they exist even when the obs
/// layer is disabled (the load bench and STATS frame read them).
#[derive(Default)]
struct Totals {
    sessions: AtomicU64,
    /// Indexed by `Verdict as usize`.
    verdicts: [AtomicU64; VERDICTS.len()],
    busy: AtomicU64,
}

/// A point-in-time copy of the engine totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TotalsSnapshot {
    /// Sessions that reached a worker (admitted, whatever their verdict).
    pub sessions: u64,
    pub ok: u64,
    pub racy: u64,
    pub usage: u64,
    pub degraded: u64,
    pub corrupt: u64,
    pub poisoned: u64,
    /// Admissions refused with `Busy` (not counted in `sessions`).
    pub busy: u64,
}

impl Totals {
    fn snapshot(&self) -> TotalsSnapshot {
        let of = |v: Verdict| self.verdicts[v as usize].load(Ordering::Relaxed);
        TotalsSnapshot {
            sessions: self.sessions.load(Ordering::Relaxed),
            ok: of(Verdict::Ok),
            racy: of(Verdict::Racy),
            usage: of(Verdict::Usage),
            degraded: of(Verdict::Degraded),
            corrupt: of(Verdict::Corrupt),
            poisoned: of(Verdict::Poisoned),
            busy: self.busy.load(Ordering::Relaxed),
        }
    }
}

/// How a session ended. Finer-grained than [`Status`]: poisoned and corrupt
/// share a wire status (the CLI's exit-4 bucket) but are counted apart. The
/// discriminant is the stable journal code and the index into [`VERDICTS`]
/// and the per-verdict counters and histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Racy,
    Usage,
    Degraded,
    Corrupt,
    Poisoned,
}

/// One row per verdict, in discriminant order: the payload `kind:` / metric
/// suffix / journal name, and the wire status it is answered with.
pub(crate) const VERDICTS: [(&str, Status); 6] = [
    ("ok", Status::Ok),
    ("racy", Status::Racy),
    ("usage", Status::Usage),
    ("degraded", Status::Degraded),
    ("corrupt", Status::Corrupt),
    ("poisoned", Status::Corrupt),
];

impl Verdict {
    fn status(self) -> Status {
        VERDICTS[self as usize].1
    }

    fn kind(self) -> &'static str {
        VERDICTS[self as usize].0
    }

    /// Stable wire/journal code (named by `crate::journal::verdict_name`).
    fn code(self) -> u16 {
        self as u16
    }
}

/// Every registered `serve.latency_ms.*` histogram with samples, as
/// `(status, histogram)` pairs — feeds STATS/HEALTH quantiles and the
/// load driver's daemon-side cross-check.
pub fn latency_histograms() -> Vec<(&'static str, &'static Histogram)> {
    (VERDICTS.iter().zip(&OBS_LATENCY))
        .map(|((name, _), h)| (*name, h))
        .filter(|(_, h)| h.count() > 0)
        .collect()
}

/// The `latency-ms <status> count N p50 X p99 Y` lines of STATS and HEALTH.
fn latency_lines(s: &mut String) {
    use std::fmt::Write;
    for (status, h) in latency_histograms() {
        let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
        let _ = writeln!(
            s,
            "latency-ms {status} count {} p50 {p50:.2} p99 {p99:.2}",
            h.count()
        );
    }
}

struct Job {
    id: u32,
    opts: String,
    trace: Vec<u8>,
    reply: Sender<Response>,
    queued_at: Instant,
}

struct Shared {
    cfg: EngineConfig,
    pool: ThreadPool,
    queue: Mutex<VecDeque<Job>>,
    cond: Condvar,
    draining: AtomicBool,
    totals: Totals,
    /// Session journal, if the daemon runs with one.
    journal: Option<SessionJournal>,
    /// Engine start (uptime origin for HEALTH).
    started_at: Instant,
    /// Watermark of queue wait (µs) — how stale the queue has been.
    queue_age_us_hw: AtomicU64,
    /// EWMA of per-session service time (µs), `ema ← (7·ema + x) / 8`.
    /// Plain atomics independent of the obs gate: the measured
    /// retry-after hint must work with observability off.
    svc_ema_us: AtomicU64,
    /// Sessions currently on a worker, with their admission time — the
    /// HEALTH frame's in-flight set. Maintained outside the session
    /// unwind boundary, like the gauges.
    running: Mutex<BTreeMap<u32, Instant>>,
}

impl Shared {
    fn journal_log(&self, session: u32, kind: u16, code: u16, payload: u64) {
        if let Some(j) = &self.journal {
            j.log(session, kind, code, payload);
        }
        flight::record(session, kind, code, payload);
    }

    /// Busy hint from measured drain rate: expected time for the current
    /// queue to clear at the observed per-session service time, floored
    /// at the configured constant (which also covers the cold start
    /// before any session has completed) and capped at one minute.
    fn retry_hint_ms(&self, queue_len: usize) -> u64 {
        let ema_us = self.svc_ema_us.load(Ordering::Relaxed);
        if ema_us == 0 {
            return self.cfg.retry_after_ms;
        }
        let workers = self.cfg.session_workers.max(1) as u64;
        let est_ms = (queue_len as u64 + 1) * (ema_us / 1000) / workers;
        est_ms.clamp(self.cfg.retry_after_ms, 60_000)
    }
}

/// The detection service: owns the queue, the workers, and the pool.
/// Cheap to share behind an `Arc`; [`Engine::drain`] is idempotent.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
}

impl Engine {
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine::with_journal(cfg, None)
    }

    /// Build an engine appending lifecycle records to `journal`. Session
    /// ids resume *above* the highest id the journal's replay saw, so a
    /// restarted daemon never reuses an id that might still be in a
    /// client's hands.
    pub fn with_journal(cfg: EngineConfig, journal: Option<SessionJournal>) -> Engine {
        let first_id = journal
            .as_ref()
            .map(|j| u64::from(j.recovered().max_session) + 1)
            .unwrap_or(1);
        let shared = Arc::new(Shared {
            cfg,
            pool: ThreadPool::new(cfg.pool_workers.max(1)),
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            draining: AtomicBool::new(false),
            totals: Totals::default(),
            journal,
            started_at: Instant::now(),
            queue_age_us_hw: AtomicU64::new(0),
            svc_ema_us: AtomicU64::new(0),
            running: Mutex::new(BTreeMap::new()),
        });
        let workers = (0..cfg.session_workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Engine {
            shared,
            workers: Mutex::new(workers),
            next_id: AtomicU64::new(first_id),
        }
    }

    /// What the journal replay found at startup (`None` without a
    /// journal): the crash-forensics view of the previous run.
    pub fn recovered(&self) -> Option<&ReplaySummary> {
        self.shared.journal.as_ref().map(|j| j.recovered())
    }

    /// The live session journal, if any.
    pub fn journal(&self) -> Option<&SessionJournal> {
        self.shared.journal.as_ref()
    }

    pub fn config(&self) -> &EngineConfig {
        &self.shared.cfg
    }

    pub fn totals(&self) -> TotalsSnapshot {
        self.shared.totals.snapshot()
    }

    pub fn queue_len(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("queue mutex poisoned")
            .len()
    }

    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Admit a session, or answer immediately on the reply channel with
    /// `Busy` (queue full) / `Bye` (draining). Returns the session id.
    pub fn try_submit(&self, opts: String, trace: Vec<u8>, reply: Sender<Response>) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) as u32;
        let mut q = self.shared.queue.lock().expect("queue mutex poisoned");
        if self.shared.draining.load(Ordering::Acquire) {
            drop(q);
            self.shared.journal_log(id, EV_BYE, 0, 0);
            let _ = reply.send(Response::new(
                Status::Bye,
                id,
                "kind: bye\nerror: server is draining\n",
            ));
            return id;
        }
        if q.len() >= self.shared.cfg.queue_depth {
            let hint = self.shared.retry_hint_ms(q.len());
            drop(q);
            self.shared.totals.busy.fetch_add(1, Ordering::Relaxed);
            OBS_BUSY.incr();
            self.shared.journal_log(id, EV_BUSY, 0, hint);
            let _ = reply.send(Response::new(
                Status::Busy,
                id,
                format!("kind: busy\nretry-after-ms: {hint}\n"),
            ));
            return id;
        }
        OBS_QUEUE_BYTES.add(trace.len() as u64);
        // Journaled under the queue lock, so a session's `admitted`
        // record always precedes its `started` record on disk.
        self.shared.journal_log(id, EV_ADMITTED, 0, q.len() as u64);
        q.push_back(Job {
            id,
            opts,
            trace,
            reply,
            queued_at: Instant::now(),
        });
        drop(q);
        self.shared.cond.notify_one();
        id
    }

    /// The STATS frame payload: engine totals, queue occupancy, and — when
    /// the obs layer is on — every gauge plus the full metrics JSON.
    pub fn stats_payload(&self) -> String {
        use std::fmt::Write;
        let t = self.totals();
        let mut s = String::new();
        let _ = writeln!(s, "kind: stats");
        let _ = writeln!(s, "sessions: {}", t.sessions);
        for ((name, _), n) in VERDICTS.iter().zip(&self.shared.totals.verdicts) {
            let _ = writeln!(s, "{name}: {}", n.load(Ordering::Relaxed));
        }
        let _ = writeln!(s, "busy: {}", t.busy);
        let _ = writeln!(s, "queued: {}", self.queue_len());
        let _ = writeln!(s, "session-workers: {}", self.shared.cfg.session_workers);
        let _ = writeln!(s, "pool-workers: {}", self.shared.cfg.pool_workers);
        let enabled = stint_obs::is_enabled();
        let _ = writeln!(s, "obs: {}", if enabled { "enabled" } else { "disabled" });
        // Both are empty until something registers with the obs layer.
        for (name, cur, hw) in stint_obs::gauges_snapshot() {
            let _ = writeln!(s, "gauge {name} {cur} {hw}");
        }
        latency_lines(&mut s);
        if enabled {
            s.push_str("metrics:\n");
            s.push_str(&stint_obs::metrics_json());
        }
        s
    }

    /// Watermark of how long any job has waited in the queue, in
    /// milliseconds (measured at worker pickup).
    pub fn queue_age_hw_ms(&self) -> u64 {
        self.shared.queue_age_us_hw.load(Ordering::Relaxed) / 1000
    }

    /// The measured `retry-after-ms` hint a Busy bounce would carry right
    /// now.
    pub fn retry_hint_ms(&self) -> u64 {
        self.shared.retry_hint_ms(self.queue_len())
    }

    /// The HEALTH frame payload: uptime, queue state, the live in-flight
    /// set, the journal/crash-recovery digest, and per-status latency
    /// quantiles when the obs layer is on.
    pub fn health_payload(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "kind: health");
        let _ = writeln!(
            s,
            "uptime-ms: {}",
            self.shared.started_at.elapsed().as_millis()
        );
        let _ = writeln!(
            s,
            "draining: {}",
            if self.is_draining() { "true" } else { "false" }
        );
        let _ = writeln!(s, "queued: {}", self.queue_len());
        let _ = writeln!(s, "queue-age-hw-ms: {}", self.queue_age_hw_ms());
        let _ = writeln!(s, "retry-after-ms: {}", self.retry_hint_ms());
        {
            let running = self
                .shared
                .running
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let _ = writeln!(s, "in-flight: {}", running.len());
            if !running.is_empty() {
                let ids: Vec<String> = running.keys().map(|id| id.to_string()).collect();
                let _ = writeln!(s, "in-flight-ids: {}", ids.join(","));
            }
        }
        match &self.shared.journal {
            Some(j) => {
                let _ = writeln!(
                    s,
                    "journal: {}",
                    j.path()
                        .map(|p| p.display().to_string())
                        .unwrap_or_else(|| "<sink>".into())
                );
                let _ = writeln!(s, "journal-records: {}", j.records_appended());
                let rec = j.recovered();
                let _ = writeln!(s, "recovered-records: {}", rec.records);
                let _ = writeln!(s, "recovered-in-flight: {}", rec.in_flight().len());
                if !rec.in_flight().is_empty() {
                    let ids: Vec<String> =
                        rec.in_flight().iter().map(|id| id.to_string()).collect();
                    let _ = writeln!(s, "recovered-in-flight-ids: {}", ids.join(","));
                }
                if let Some(c) = &rec.corruption {
                    let _ = writeln!(s, "recovered-corruption: {c}");
                }
            }
            None => {
                let _ = writeln!(s, "journal: off");
            }
        }
        let _ = writeln!(
            s,
            "flight-records: {}",
            stint_obs::flight::records_written()
        );
        latency_lines(&mut s);
        s
    }

    /// Graceful drain: stop admitting, finish every queued session, park
    /// the workers. Idempotent — later calls (and calls racing from several
    /// transport threads) join nothing and return immediately.
    pub fn drain(&self) {
        // Set under the queue lock: a worker between its empty-queue check
        // and its wait would otherwise miss the wake-up and never exit.
        let q = self.shared.queue.lock().expect("queue mutex poisoned");
        let first = !self.shared.draining.swap(true, Ordering::AcqRel);
        drop(q);
        self.shared.cond.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers mutex poisoned"));
        for h in workers {
            let _ = h.join();
        }
        if first {
            // One drain record after the queue has emptied: the journal's
            // last word is "everything admitted was answered".
            let sessions = self.shared.totals.sessions.load(Ordering::Relaxed);
            self.shared.journal_log(0, EV_DRAINED, 0, sessions);
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue mutex poisoned");
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                q = shared.cond.wait(q).expect("queue mutex poisoned");
            }
        };
        // Gauge discipline: gauges and the in-flight set move *outside*
        // the unwind boundary, so a poisoned or timed-out session still
        // balances them.
        OBS_QUEUE_BYTES.sub(job.trace.len() as u64);
        OBS_INFLIGHT.add(1);
        shared.totals.sessions.fetch_add(1, Ordering::Relaxed);
        OBS_SESSIONS.incr();
        let queue_age = job.queued_at.elapsed();
        shared
            .queue_age_us_hw
            .fetch_max(queue_age.as_micros() as u64, Ordering::Relaxed);
        OBS_QUEUE_AGE.observe(queue_age.as_millis() as u64);
        shared
            .running
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(job.id, job.queued_at);
        shared.journal_log(job.id, EV_STARTED, 0, queue_age.as_millis() as u64);
        let run_start = Instant::now();
        let (verdict, payload) = match catch_unwind(AssertUnwindSafe(|| run_session(shared, &job)))
        {
            Ok(vp) => vp,
            Err(p) => error_payload(&DetectorError::from_panic(p)),
        };
        // Feed the measured drain rate (plain atomics — works with obs
        // off): ema ← (7·ema + sample) / 8.
        let svc_us = run_start.elapsed().as_micros() as u64;
        let _ = shared
            .svc_ema_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |ema| {
                Some(if ema == 0 {
                    svc_us
                } else {
                    (7 * ema + svc_us) / 8
                })
            });
        let latency_ms = job.queued_at.elapsed().as_millis() as u64;
        OBS_LATENCY[verdict as usize].observe(latency_ms);
        OBS_INFLIGHT.sub(1);
        shared
            .running
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&job.id);
        shared.totals.verdicts[verdict as usize].fetch_add(1, Ordering::Relaxed);
        OBS_VERDICTS[verdict as usize].incr();
        if verdict == Verdict::Degraded && payload.contains("wall-clock budget") {
            shared.journal_log(job.id, EV_TIMEOUT, verdict.code(), latency_ms);
        }
        // Verdict is journaled *before* the reply leaves: a session whose
        // answer a client has seen always has its verdict on disk.
        shared.journal_log(job.id, EV_VERDICT, verdict.code(), latency_ms);
        let _ = job
            .reply
            .send(Response::new(verdict.status(), job.id, payload));
    }
}

/// One session, start to verdict. Runs under the worker's `catch_unwind`;
/// everything that can fail comes back as a structured verdict.
fn run_session(shared: &Shared, job: &Job) -> (Verdict, String) {
    let opts = match SessionOpts::parse(&job.opts) {
        Ok(o) => o,
        Err(e) => return (Verdict::Usage, format!("kind: usage\nerror: {e}\n")),
    };
    // Chaos knob: every Nth session dies mid-flight. The worker's
    // catch_unwind turns this into a poisoned reply; neighbors are
    // untouched.
    if let Some(n) = stint_faults::serve_panic_session() {
        if u64::from(job.id) % n == 0 {
            panic!("injected serve session panic (session {})", job.id);
        }
    }
    let budget = ResourceBudget {
        max_intervals: opts.max_intervals,
        ..ResourceBudget::default()
    };
    let timeout = Duration::from_millis(opts.timeout_ms.unwrap_or(shared.cfg.default_timeout_ms));
    let limits = SessionLimits {
        budget,
        ..SessionLimits::default()
    }
    .timeout_after(timeout);
    // The stall counts against the deadline just armed: a client cannot
    // hold a worker past it.
    if let Some(ms) = opts.stall_ms {
        std::thread::sleep(Duration::from_millis(ms).min(timeout));
    }
    let bcfg = BatchConfig {
        shards: opts.shards.unwrap_or_else(|| BatchConfig::default().shards),
        witnesses: opts.witness,
        limits,
        ..BatchConfig::default()
    };
    // A v2 trace streams straight off the frame buffer chunk by chunk: peak
    // detector-side memory is one chunk plus the shard detectors.
    match batch_detect_any(&shared.pool, &mut &job.trace[..], &bcfg) {
        Ok(mut out) => {
            use std::fmt::Write;
            let verdict = if out.degraded.is_some() {
                Verdict::Degraded
            } else if !out.merged.is_race_free() {
                Verdict::Racy
            } else {
                Verdict::Ok
            };
            let mut p = String::new();
            let _ = writeln!(p, "kind: {}", verdict.kind());
            let _ = writeln!(p, "races: {}", out.merged.racy_words.len());
            let _ = writeln!(p, "events: {}", out.events);
            let _ = writeln!(p, "strands: {}", out.strands);
            let _ = writeln!(p, "wall-ms: {}", out.wall.as_millis());
            if opts.witness {
                // Count every captured witness, then cap what actually rides
                // the wire: regions past the cap keep their race record but
                // drop witness detail, so a pathological report can't blow
                // the reply frame up. The counts make the cap visible.
                let captured = out
                    .merged
                    .regions
                    .iter()
                    .filter(|r| r.witness.is_some())
                    .count();
                OBS_WITNESSES.add(captured as u64);
                let mut shown = 0usize;
                for r in &mut out.merged.regions {
                    if r.witness.is_none() {
                        continue;
                    }
                    if shown < MAX_WIRE_WITNESSES {
                        shown += 1;
                    } else {
                        r.witness = None;
                    }
                }
                let _ = writeln!(p, "witnesses: {captured}");
                let _ = writeln!(p, "witnesses-shown: {shown}");
            }
            if let Some(e) = &out.degraded {
                let _ = writeln!(p, "error: {e}");
            }
            p.push_str("report:\n");
            p.push_str(&out.merged.render());
            (verdict, p)
        }
        Err(e) => error_payload(&e),
    }
}

fn error_payload(e: &DetectorError) -> (Verdict, String) {
    let v = match e {
        DetectorError::ResourceExhausted { .. } => Verdict::Degraded,
        DetectorError::Poisoned { .. } => Verdict::Poisoned,
        DetectorError::CorruptTrace { .. } => Verdict::Corrupt,
    };
    (v, format!("kind: {}\nerror: {e}\n", v.kind()))
}
