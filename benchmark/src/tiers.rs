//! The untraced measurement: one [`Tier`] per workload, and the loop that
//! sets it up, measures passes for the requested time and checks every
//! verdict.
//!
//! An *operation* is one kernel detection or one session; a pass runs the
//! workload's whole input set once. Only the call into the tier is timed —
//! building fresh inputs and checking outputs happen between the clock reads.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use stint::{detect_with, Config, DetectorError, DetectorStats, PortableTrace, ReachKind, Variant};
use stint_batchdet::{
    batch_detect_chunked_on, online_detect, BatchConfig, BatchOutcome, OnlineConfig,
};
use stint_cilkrt::ThreadPool;

use crate::expected::{self, Expected};
use crate::programs::{Kernel, Source};

/// Set-up repetitions per run; `setup_s` reports the fastest.
pub const SETUP_REPS: usize = 5;
/// A run measures at least this many passes however long they take.
pub const MIN_PASSES: usize = 5;
/// Events per chunk of the v2 files and of the online tier's fan-out.
pub const CHUNK_EVENTS: usize = 4096;
/// Load-generating threads, shards and pool workers: the reference box has
/// two hardware threads.
pub const PAR: usize = 2;

/// What one pass did.
#[derive(Default)]
pub struct Pass {
    /// Seconds inside the tier.
    pub wall: f64,
    /// Operations attempted.
    pub ops: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Σ `ah_bytes + coalesce_bytes` over the pass's detections.
    pub history_bytes: u64,
    /// Per-operation latency, ms (serve sessions only).
    pub latencies_ms: Vec<f64>,
}

pub trait Tier {
    fn pass(&mut self) -> Pass;
}

pub fn history_bytes(s: &DetectorStats) -> u64 {
    s.ah_bytes + s.coalesce_bytes
}

/// Sequential on-the-fly detection: `detect_with(Variant::Stint)`, default
/// `HotPath`.
pub struct SeqTier {
    pub source: Source,
    pub cfg: Config,
}

impl SeqTier {
    pub fn new(source: Source, reach: ReachKind) -> SeqTier {
        let mut cfg = Config::new(Variant::Stint);
        cfg.reach = reach;
        SeqTier { source, cfg }
    }
}

/// Record what is wrong with one detection, if anything.
pub fn check_detection(
    name: &str,
    verify: Result<(), String>,
    racy_words: &[u64],
    expect: &Expected,
    degraded: Option<&DetectorError>,
    failures: &mut Vec<String>,
) {
    let problem = verify
        .err()
        .map(|e| format!("{name}: kernel output wrong: {e}"))
        .or_else(|| degraded.map(|e| format!("{name}: degraded: {e}")))
        .or_else(|| expect.mismatch(racy_words));
    failures.extend(problem);
}

impl Tier for SeqTier {
    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        for (name, mut prog, planted) in self.source.instantiate() {
            let t0 = Instant::now();
            let out = detect_with(&mut prog, self.cfg);
            let racy = out.report.racy_words();
            pass.wall += t0.elapsed().as_secs_f64();
            pass.ops += 1;
            pass.history_bytes += history_bytes(&out.stats);
            check_detection(
                name,
                prog.verify(),
                &racy,
                &Expected::from_words(name, planted),
                out.degraded.as_ref(),
                &mut pass.failures,
            );
        }
        pass
    }
}

/// Where the set-up child leaves the v2 file of `kernel`.
pub fn v2_path(dir: &Path, kernel: &str) -> PathBuf {
    dir.join(format!("{kernel}.v2"))
}

/// Record `kernel` and write it as a compressed chunked v2 file.
pub fn write_v2(dir: &Path, kernel: &Kernel) -> std::io::Result<()> {
    use std::io::Write;
    let pt = PortableTrace::record(&mut (kernel.make)());
    let mut w = std::io::BufWriter::new(File::create(v2_path(dir, kernel.name))?);
    pt.save_compressed(&mut w, CHUNK_EVENTS)?;
    w.flush()
}

/// Offline streamed replay: `batch_detect_chunked_on`, K=2 shards on one
/// 2-worker pool, reading each file through a `BufReader<File>`.
pub struct ReplayTier {
    pool: ThreadPool,
    cfg: BatchConfig,
    files: Vec<(PathBuf, Expected)>,
    /// The first render of each file: the merged report is byte-identical
    /// for any schedule, so every later pass must reproduce it.
    renders: Vec<Option<String>>,
}

impl ReplayTier {
    pub fn new(dir: &Path, kernels: &[Kernel], shards: usize, workers: usize) -> ReplayTier {
        ReplayTier {
            pool: ThreadPool::new(workers),
            cfg: BatchConfig {
                shards,
                workers,
                ..BatchConfig::default()
            },
            files: kernels
                .iter()
                .map(|k| (v2_path(dir, k.name), expected::of(k.name)))
                .collect(),
            renders: vec![None; kernels.len()],
        }
    }

    /// Detect one file; the outcome and the seconds it took.
    pub fn detect(&self, i: usize) -> (Result<BatchOutcome, String>, f64) {
        let path = &self.files[i].0;
        let t0 = Instant::now();
        let out = File::open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))
            .and_then(|f| {
                batch_detect_chunked_on(&self.pool, BufReader::new(f), &self.cfg)
                    .map_err(|e| e.to_string())
            });
        (out, t0.elapsed().as_secs_f64())
    }

    pub fn files(&self) -> usize {
        self.files.len()
    }
}

impl Tier for ReplayTier {
    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        for i in 0..self.files.len() {
            let (out, secs) = self.detect(i);
            pass.wall += secs;
            pass.ops += 1;
            let expect = &self.files[i].1;
            match out {
                Err(e) => pass.failures.push(format!("{}: {e}", expect.name)),
                Ok(out) => {
                    pass.history_bytes += history_bytes(&out.stats);
                    check_detection(
                        &expect.name,
                        Ok(()),
                        &out.merged.racy_words,
                        expect,
                        out.degraded.as_ref(),
                        &mut pass.failures,
                    );
                    let render = out.merged.render();
                    let first = self.renders[i].get_or_insert_with(|| render.clone());
                    if *first != render {
                        pass.failures.push(format!(
                            "{}: render differs from the first pass",
                            expect.name
                        ));
                    }
                }
            }
        }
        pass
    }
}

/// Bulk-synchronous online detection over DePa: `online_detect`, W=2, K=2.
pub struct OnlineTier {
    pub kernels: &'static [Kernel],
    expects: Vec<Expected>,
    pub cfg: OnlineConfig,
}

impl OnlineTier {
    pub fn new(kernels: &'static [Kernel], shards: usize, workers: usize) -> OnlineTier {
        OnlineTier {
            kernels,
            expects: kernels.iter().map(|k| expected::of(k.name)).collect(),
            cfg: OnlineConfig {
                shards,
                workers,
                chunk_events: CHUNK_EVENTS,
                ..OnlineConfig::default()
            },
        }
    }
}

impl Tier for OnlineTier {
    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        for (k, expect) in self.kernels.iter().zip(&self.expects) {
            let mut w = (k.make)();
            let t0 = Instant::now();
            let out = online_detect(&mut w, &self.cfg);
            pass.wall += t0.elapsed().as_secs_f64();
            pass.ops += 1;
            match out {
                Err(e) => pass.failures.push(format!("{}: {e}", k.name)),
                Ok(out) => {
                    pass.history_bytes += history_bytes(&out.stats);
                    check_detection(
                        k.name,
                        w.verify(),
                        &out.merged.racy_words,
                        expect,
                        out.degraded.as_ref(),
                        &mut pass.failures,
                    );
                }
            }
        }
        pass
    }
}

/// Everything an untraced run of one workload measured.
#[derive(Default)]
pub struct Measured {
    /// Seconds of each set-up repetition inside the measured process.
    pub setup_s: Vec<f64>,
    /// Seconds of each measured pass.
    pub walls: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub failed: u64,
    /// From the first measured pass: with ASLR off it is the same pass of the
    /// same allocation history on every run.
    pub history_bytes: u64,
}

impl Measured {
    fn tally(&mut self, pass: &Pass) {
        self.attempted += pass.ops;
        self.failed += pass.failures.len() as u64;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures
            .extend(pass.failures.iter().take(room).cloned());
    }
}

/// Set the tier up [`SETUP_REPS`] times (each: `init` plus one warm-up pass,
/// the previous instance dropped first), then measure passes of the last
/// instance for `seconds`.
pub fn measure<T: Tier>(mut init: impl FnMut() -> T, seconds: f64) -> Measured {
    let mut m = Measured::default();
    let mut tier = None;
    for _ in 0..SETUP_REPS {
        drop(tier.take());
        let t0 = Instant::now();
        let mut t = init();
        let warm = t.pass();
        m.setup_s.push(t0.elapsed().as_secs_f64());
        m.tally(&warm);
        tier = Some(t);
    }
    let mut tier = tier.expect("SETUP_REPS > 0");
    let t0 = Instant::now();
    while m.walls.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let pass = tier.pass();
        if m.walls.is_empty() {
            m.history_bytes = pass.history_bytes;
        }
        m.walls.push(pass.wall);
        m.tally(&pass);
    }
    m
}
