//! `serve_closed`: a `run_socket` server thread over a unix socket in
//! `benchmark/out`, an `Engine` with the session journal on, and two
//! closed-loop clients (each sends its next session only after the previous
//! verdict came back — callers that wait for a verdict).
//!
//! A pass is one *block* of [`BLOCK`] sessions in a seed-shuffled order:
//! 60% clean v2, 25% racy v2, 10% clean v1 text, 5% truncated v2.

use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stint::journal::FsyncPolicy;
use stint::{sniff_magic, DetectorError, PortableTrace, TraceMagic};
use stint_batchdet::{
    batch_detect_chunked_on, batch_detect_on, load_trace, BatchConfig, BatchOutcome,
};
use stint_cilkrt::ThreadPool;
use stint_serve::protocol::{read_response, write_request};
use stint_serve::{Engine, EngineConfig, Request, Response, SessionJournal, Status};

use crate::expected::{self, Expected};
use crate::programs::{Rng, SERVE_CLEAN_V1, SERVE_CLEAN_V2, SERVE_RACY_V2};
use crate::tiers::{history_bytes, v2_path, write_v2, Pass, Tier, PAR};

/// Sessions per block, and how many of each class.
pub const BLOCK: usize = 80;
const MIX: [(Class, usize); 5] = [
    (Class::CleanV2, 48),
    (Class::RacyMmulV2, 10),
    (Class::RacyMergeV2, 10),
    (Class::CleanV1, 8),
    (Class::TruncatedV2, 4),
];
/// No reply within this long is a failed session.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

pub const ENGINE: EngineConfig = EngineConfig {
    session_workers: PAR,
    queue_depth: 32,
    pool_workers: PAR,
    default_timeout_ms: 10_000,
    retry_after_ms: 2,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    CleanV2,
    RacyMmulV2,
    RacyMergeV2,
    CleanV1,
    TruncatedV2,
}

impl Class {
    fn file(self, dir: &Path) -> PathBuf {
        match self {
            Class::CleanV2 => v2_path(dir, SERVE_CLEAN_V2.name),
            Class::RacyMmulV2 => v2_path(dir, SERVE_RACY_V2[0].name),
            Class::RacyMergeV2 => v2_path(dir, SERVE_RACY_V2[1].name),
            Class::CleanV1 => dir.join("chol.v1"),
            Class::TruncatedV2 => dir.join("truncated.v2"),
        }
    }

    fn expected(self) -> Expected {
        expected::of(match self {
            Class::CleanV2 => SERVE_CLEAN_V2.name,
            Class::RacyMmulV2 => SERVE_RACY_V2[0].name,
            Class::RacyMergeV2 => SERVE_RACY_V2[1].name,
            Class::CleanV1 => SERVE_CLEAN_V1.name,
            Class::TruncatedV2 => "truncated-v2",
        })
    }
}

/// Set-up step that produces files: record, encode and write every payload.
pub fn write_payloads(dir: &Path) -> std::io::Result<()> {
    write_v2(dir, &SERVE_CLEAN_V2)?;
    for k in &SERVE_RACY_V2 {
        write_v2(dir, k)?;
    }
    let v1 = PortableTrace::record(&mut (SERVE_CLEAN_V1.make)());
    let mut w = BufWriter::new(std::fs::File::create(Class::CleanV1.file(dir))?);
    v1.save(&mut w)?;
    w.flush()?;
    let clean = std::fs::read(Class::CleanV2.file(dir))?;
    std::fs::write(Class::TruncatedV2.file(dir), &clean[..clean.len() * 2 / 3])
}

/// The distinct requests of the mix and the order a block sends them in.
pub struct Mix {
    pub requests: Vec<Request>,
    pub expects: Vec<Expected>,
    /// Indices into `requests`, [`BLOCK`] of them.
    pub order: Vec<usize>,
}

impl Mix {
    pub fn load(dir: &Path, seed: u64) -> Mix {
        let mut requests = Vec::new();
        let mut expects = Vec::new();
        let mut order = Vec::new();
        for (i, (class, n)) in MIX.iter().enumerate() {
            let path = class.file(dir);
            let trace = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("read payload {}: {e}", path.display()));
            requests.push(Request::Detect {
                opts: String::new(),
                trace,
            });
            expects.push(class.expected());
            order.extend(std::iter::repeat_n(i, *n));
        }
        assert_eq!(order.len(), BLOCK);
        Rng(seed ^ 0x5e12_7e5e).shuffle(&mut order);
        Mix {
            requests,
            expects,
            order,
        }
    }

    /// What is wrong with `resp` as an answer to request `i`, if anything.
    pub fn check(&self, i: usize, resp: &Response) -> Option<String> {
        let e = &self.expects[i];
        if resp.status.to_string() != e.status {
            return Some(format!(
                "{}: status {}, expected {}",
                e.name, resp.status, e.status
            ));
        }
        if matches!(resp.status, Status::Ok | Status::Racy) {
            let races = resp
                .payload
                .lines()
                .find_map(|l| l.strip_prefix("races: "))
                .and_then(|v| v.trim().parse::<u64>().ok());
            if races != Some(e.racy_words) {
                return Some(format!(
                    "{}: races {races:?}, expected {}",
                    e.name, e.racy_words
                ));
            }
        }
        None
    }
}

struct Client {
    w: BufWriter<UnixStream>,
    r: BufReader<UnixStream>,
}

impl Client {
    fn connect(sock: &Path) -> std::io::Result<Client> {
        let s = UnixStream::connect(sock)?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            w: BufWriter::with_capacity(1 << 16, s.try_clone()?),
            r: BufReader::new(s),
        })
    }

    /// One closed-loop exchange; the reply and its latency in ms.
    fn exchange(&mut self, req: &Request) -> Result<(Response, f64), String> {
        let t0 = Instant::now();
        write_request(&mut self.w, req)
            .and_then(|()| self.w.flush())
            .map_err(|e| format!("send: {e}"))?;
        match read_response(&mut self.r) {
            Ok(Some(resp)) => Ok((resp, t0.elapsed().as_secs_f64() * 1e3)),
            Ok(None) => Err("server closed the connection".into()),
            Err(e) => Err(format!("no reply: {e:?}")),
        }
    }
}

/// Run one block: `clients` workers, worker `c` taking every position of the
/// order congruent to `c`. Returns the pass (wall = block wall time).
fn block<C: Send>(
    mix: &Mix,
    clients: &mut [C],
    exchange: impl Fn(&mut C, &Request) -> Result<(Response, f64), String> + Sync,
) -> Pass {
    let n = clients.len();
    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let exchange = &exchange;
                scope.spawn(move || {
                    let (mut lat, mut failures) = (Vec::new(), Vec::new());
                    for &i in mix.order.iter().skip(c).step_by(n) {
                        match exchange(client, &mix.requests[i]) {
                            Ok((resp, ms)) => {
                                lat.push(ms);
                                failures.extend(mix.check(i, &resp));
                            }
                            Err(e) => failures.push(format!("{}: {e}", mix.expects[i].name)),
                        }
                    }
                    (lat, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut pass = Pass {
        wall: t0.elapsed().as_secs_f64(),
        ops: mix.order.len() as u64,
        ..Pass::default()
    };
    for (lat, failures) in per_client {
        pass.latencies_ms.extend(lat);
        pass.failures.extend(failures);
    }
    pass
}

/// An engine with the session journal on (`FsyncPolicy::Off`).
pub fn engine_with_journal(dir: &Path) -> Arc<Engine> {
    let path = dir.join(format!("sessions-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journal = SessionJournal::open(&path, FsyncPolicy::Off).expect("open session journal");
    Arc::new(Engine::with_journal(ENGINE, Some(journal)))
}

/// The socket tier: what `serve_closed` measures.
pub struct ServeTier {
    pub engine: Arc<Engine>,
    pub mix: Mix,
    server: Option<JoinHandle<std::io::Result<()>>>,
    clients: Vec<Client>,
}

impl ServeTier {
    pub fn start(dir: &Path, seed: u64) -> ServeTier {
        let mix = Mix::load(dir, seed);
        let engine = engine_with_journal(dir);
        let sock = dir.join(format!("s{}.sock", std::process::id()));
        let sock_str = sock.to_str().expect("utf-8 socket path").to_string();
        let server = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || stint_serve::server::run_socket(&engine, &sock_str, 0))
        };
        // The listener appears a moment after the thread starts.
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let clients = (0..PAR)
            .map(|_| loop {
                match Client::connect(&sock) {
                    Ok(c) => break c,
                    Err(e) if Instant::now() > deadline => {
                        panic!("connect {}: {e}", sock.display())
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            })
            .collect();
        ServeTier {
            engine,
            mix,
            server: Some(server),
            clients,
        }
    }
}

impl Tier for ServeTier {
    fn pass(&mut self) -> Pass {
        block(&self.mix, &mut self.clients, Client::exchange)
    }
}

impl Drop for ServeTier {
    /// Graceful stop: hang up all but one client, ask the daemon to shut
    /// down on the last, wait for its `bye`, then join the server thread.
    fn drop(&mut self) {
        let last = self.clients.pop();
        self.clients.clear();
        if let Some(mut c) = last {
            if write_request(&mut c.w, &Request::Shutdown)
                .and_then(|()| c.w.flush())
                .is_ok()
            {
                while let Ok(Some(resp)) = read_response(&mut c.r) {
                    if resp.status == Status::Bye {
                        break;
                    }
                }
            }
        }
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

/// The same closed loop straight into `Engine::try_submit`, no socket and no
/// frames: what is left of a session when the transport is taken away.
pub struct InprocTier {
    pub engine: Arc<Engine>,
    pub mix: Mix,
    lanes: Vec<()>,
}

impl InprocTier {
    pub fn start(dir: &Path, seed: u64) -> InprocTier {
        InprocTier {
            engine: engine_with_journal(dir),
            mix: Mix::load(dir, seed),
            lanes: vec![(); PAR],
        }
    }
}

impl Tier for InprocTier {
    fn pass(&mut self) -> Pass {
        let engine = &self.engine;
        block(&self.mix, &mut self.lanes, |_, req| {
            let Request::Detect { opts, trace } = req else {
                unreachable!("the mix holds DETECT requests only");
            };
            let (tx, rx) = mpsc::channel();
            let t0 = Instant::now();
            engine.try_submit(opts.clone(), trace.clone(), tx);
            rx.recv_timeout(REPLY_TIMEOUT)
                .map(|resp| (resp, t0.elapsed().as_secs_f64() * 1e3))
                .map_err(|e| format!("no reply: {e}"))
        })
    }
}

/// Detect one request's payload the way the engine's session runner does,
/// with nothing of the engine around it.
pub fn standalone_detect(pool: &ThreadPool, req: &Request) -> Result<BatchOutcome, DetectorError> {
    let Request::Detect { trace, .. } = req else {
        unreachable!("the mix holds DETECT requests only");
    };
    let cfg = BatchConfig::default();
    match sniff_magic(trace) {
        TraceMagic::V1 => load_trace(&trace[..]).and_then(|pt| batch_detect_on(pool, &pt, &cfg)),
        _ => batch_detect_chunked_on(pool, &trace[..], &cfg),
    }
}

/// Σ history bytes of one standalone detection of every session of a block:
/// `history_mb` of `serve_closed`, whose replies carry no detector statistics.
pub fn block_history_bytes(mix: &Mix) -> u64 {
    let pool = ThreadPool::new(ENGINE.pool_workers);
    let per_request: Vec<u64> = mix
        .requests
        .iter()
        .map(|req| standalone_detect(&pool, req).map_or(0, |o| history_bytes(&o.stats)))
        .collect();
    mix.order.iter().map(|&i| per_request[i]).sum()
}
