//! `batch` — scalability and ingest study for the sharded batch-mode
//! detector.
//!
//! For every workload the binary records one portable trace, times the
//! sequential STINT replay of it (the single-detector baseline), then times
//! batch detection over K ∈ {1, 2, 4, 8} address shards with `workers = K`
//! on the work-stealing pool. Each cell reports `speedup = t_seq / t_batch`
//! **and the shard work count** — the events actually routed to shard
//! detectors, which the O(n) partition pass keeps within a whisker of the
//! trace length instead of the K·n of a clip-per-shard rescan. The
//! headline number is the geomean speedup at K=4 over the *large*
//! benchmarks (traces with at least [`LARGE_EVENTS`] events — small traces
//! are fan-out-overhead-bound and say nothing about scalability).
//!
//! The study also measures the compressed chunked `STINT-TRACE v2`
//! encoding: per bench it records the uncompressed (v1 text) and
//! compressed byte sizes, then times the streaming chunked detector at K=4
//! over the compressed buffer and reports ingest throughput in bytes/sec —
//! the second axis of `BENCH_batch.json` (schema `stint-bench-batch-v2`).
//!
//! Every batch run — in-memory or streamed — is cross-checked against the
//! sequential replay: the merged racy-word set must match exactly, for
//! every K and both encodings. A mismatch is a detector bug and a hard
//! failure, not a statistic.
//!
//! The emitted JSON records `hw_threads` (`available_parallelism`) so a
//! reader can tell whether the speedup column means anything; the work-count
//! and compression gates (`jsoncheck batch`) are machine-independent and
//! always enforced.
//!
//! Flags: `--scale {test|s|m|paper}` (default `s`), `--reps N` (best-of-N
//! per cell, default 3), `--bench NAME`, `--out PATH` (default
//! `BENCH_batch.json`).

use std::time::{Duration, Instant};
use stint::{PortableTrace, RaceReport, StintDetector, DEFAULT_CHUNK_EVENTS};
use stint_batchdet::{batch_detect, batch_detect_chunked, BatchConfig};
use stint_bench::*;
use stint_suite::{Scale, Workload, NAMES};

/// Shard-count axis of the study. Must be strictly increasing — `jsoncheck
/// batch` verifies the emitted axis is monotone.
const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Shard count of the streaming-ingest cell.
const STREAM_K: usize = 4;

/// A trace with at least this many events counts as *large*: big enough
/// that per-shard detector setup and pool fan-out are amortized. The
/// headline geomean — and the compression-ratio gate, which tiny traces
/// would turn into a header-overhead measurement — is computed over large
/// benches only (falling back to all benches if the scale produces none).
const LARGE_EVENTS: u64 = 20_000;

struct Args {
    scale: Scale,
    reps: u32,
    out: String,
    bench: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut a = Args {
        scale: scale_from_args(),
        reps: 3,
        out: "BENCH_batch.json".to_string(),
        bench: None,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--reps" => {
                a.reps = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--reps needs a positive integer");
                        std::process::exit(2);
                    });
                i += 1;
            }
            "--out" => {
                a.out = argv.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
                i += 1;
            }
            "--bench" => {
                a.bench = Some(argv.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--bench needs a workload name");
                    std::process::exit(2);
                }));
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }
    a.reps = a.reps.max(1);
    a
}

struct Cell {
    shards: usize,
    workers: usize,
    wall: Duration,
    /// Events routed to shard detectors (summed over shards) — the batch
    /// phase's work count.
    work: u64,
}

/// The streaming-ingest cell: chunked detection over the compressed buffer.
struct StreamCell {
    wall: Duration,
    bytes: u64,
    chunks: u64,
    runs: u64,
    wholesale_runs: u64,
}

struct Row {
    bench: &'static str,
    events: u64,
    strands: usize,
    seq: Duration,
    cells: Vec<Cell>,
    /// v1 text encoding size (bytes; counted, never materialized).
    v1_bytes: u64,
    /// Compressed chunked v2 encoding size (bytes).
    v2_bytes: u64,
    stream: StreamCell,
}

impl Row {
    fn large(&self) -> bool {
        self.events >= LARGE_EVENTS
    }
    fn speedup(&self, cell: &Cell) -> f64 {
        self.seq.as_secs_f64() / cell.wall.as_secs_f64().max(1e-9)
    }
    fn speedup_at(&self, k: usize) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.shards == k)
            .map(|c| self.speedup(c))
    }
    /// Shard work relative to the trace length at one K.
    fn work_ratio(&self, cell: &Cell) -> f64 {
        cell.work as f64 / (self.events.max(1)) as f64
    }
    fn compression_ratio(&self) -> f64 {
        self.v2_bytes as f64 / (self.v1_bytes.max(1)) as f64
    }
    fn stream_mib_s(&self) -> f64 {
        let secs = self.stream.wall.as_secs_f64().max(1e-9);
        self.stream.bytes as f64 / (1024.0 * 1024.0) / secs
    }
}

/// Byte-counting sink: sizes the v1 text encoding without holding it.
struct CountWriter(u64);
impl std::io::Write for CountWriter {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0 += b.len() as u64;
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Best-of-N sequential STINT replay of the trace; also returns the
/// racy-word set every batch run must reproduce.
fn time_sequential(pt: &PortableTrace, reps: u32) -> (Duration, Vec<u64>) {
    let mut best = Duration::MAX;
    let mut words = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let det = pt.replay(StintDetector::new(RaceReport::unbounded(true)));
        let wall = t0.elapsed();
        best = best.min(wall);
        words = det.report.racy_words();
    }
    (best, words)
}

/// Best-of-N batch detection at one shard count, cross-checked against the
/// sequential racy-word set on every rep.
fn time_batch(bench: &str, pt: &PortableTrace, k: usize, reps: u32, expected: &[u64]) -> Cell {
    let cfg = BatchConfig {
        shards: k,
        workers: k,
        steal_seed: 0,
        ..BatchConfig::default()
    };
    let mut best = Duration::MAX;
    let mut work = 0u64;
    for _ in 0..reps {
        let out = batch_detect(pt, &cfg)
            .unwrap_or_else(|e| panic!("{bench}: batch detection failed at K={k}: {e}"));
        assert!(
            out.degraded.is_none(),
            "{bench}: degraded batch run at K={k} with no fault plan installed"
        );
        assert_eq!(
            out.merged.racy_words, expected,
            "{bench}: batch racy words diverge from sequential STINT at K={k}"
        );
        best = best.min(out.wall);
        work = out.shards.iter().map(|s| s.events).sum();
    }
    Cell {
        shards: k,
        workers: k,
        wall: best,
        work,
    }
}

/// Best-of-N streaming chunked detection over the compressed buffer at
/// [`STREAM_K`] shards, cross-checked like the in-memory cells.
fn time_stream(bench: &str, buf: &[u8], reps: u32, expected: &[u64]) -> StreamCell {
    let cfg = BatchConfig {
        shards: STREAM_K,
        workers: STREAM_K,
        steal_seed: 0,
        ..BatchConfig::default()
    };
    let mut best: Option<StreamCell> = None;
    for _ in 0..reps {
        let out = batch_detect_chunked(buf, &cfg)
            .unwrap_or_else(|e| panic!("{bench}: chunked detection failed: {e}"));
        assert!(out.degraded.is_none(), "{bench}: degraded chunked run");
        assert_eq!(
            out.merged.racy_words, expected,
            "{bench}: streamed racy words diverge from sequential STINT"
        );
        let ing = out.ingest.expect("chunked runs report ingest stats");
        if best.as_ref().is_none_or(|b| out.wall < b.wall) {
            best = Some(StreamCell {
                wall: out.wall,
                bytes: ing.bytes,
                chunks: ing.chunks,
                runs: ing.runs,
                wholesale_runs: ing.wholesale_runs,
            });
        }
    }
    best.expect("reps >= 1")
}

fn run_bench(name: &'static str, scale: Scale, reps: u32) -> Row {
    let mut w = Workload::by_name(name, scale);
    let pt = PortableTrace::record(&mut w);
    w.verify()
        .unwrap_or_else(|e| panic!("{name}: workload output wrong after recording: {e}"));
    let events = pt.trace.len() as u64;
    let strands = pt.reach.strand_count();
    let (seq, expected) = time_sequential(&pt, reps);
    let cells = SHARDS
        .iter()
        .map(|&k| time_batch(name, &pt, k, reps, &expected))
        .collect();
    let mut counter = CountWriter(0);
    pt.save(&mut counter)
        .unwrap_or_else(|e| panic!("{name}: sizing the v1 encoding failed: {e}"));
    let v1_bytes = counter.0;
    let mut buf = Vec::new();
    let cst = pt
        .save_compressed(&mut buf, DEFAULT_CHUNK_EVENTS)
        .unwrap_or_else(|e| panic!("{name}: compression failed: {e}"));
    let stream = time_stream(name, &buf, reps, &expected);
    assert_eq!(
        stream.chunks, cst.chunks,
        "{name}: reader chunk count drift"
    );
    Row {
        bench: name,
        events,
        strands,
        seq,
        cells,
        v1_bytes,
        v2_bytes: cst.bytes,
        stream,
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(path: &str, scale: Scale, reps: u32, hw: usize, rows: &[Row], headline: (f64, &str)) {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"stint-bench-batch-v2\",\n");
    j.push_str(&format!("  \"scale\": \"{}\",\n", scale_name(scale)));
    j.push_str(&format!("  \"reps\": {reps},\n"));
    j.push_str(&format!("  \"hw_threads\": {hw},\n"));
    j.push_str(&format!("  \"stream_k\": {STREAM_K},\n"));
    j.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        j.push_str(&format!(
            concat!(
                "    {{\"bench\": \"{}\", \"events\": {}, \"strands\": {}, ",
                "\"large\": {}, \"seq_secs\": {:.6},\n",
                "     \"uncompressed_bytes\": {}, \"compressed_bytes\": {}, ",
                "\"compression_ratio\": {:.6},\n",
                "     \"stream\": {{\"k\": {}, \"secs\": {:.6}, \"bytes\": {}, ",
                "\"chunks\": {}, \"runs\": {}, \"wholesale_runs\": {}, ",
                "\"mib_per_sec\": {:.3}}},\n",
                "     \"shards\": [\n"
            ),
            r.bench,
            r.events,
            r.strands,
            r.large(),
            r.seq.as_secs_f64(),
            r.v1_bytes,
            r.v2_bytes,
            r.compression_ratio(),
            STREAM_K,
            r.stream.wall.as_secs_f64(),
            r.stream.bytes,
            r.stream.chunks,
            r.stream.runs,
            r.stream.wholesale_runs,
            r.stream_mib_s(),
        ));
        for (ci, c) in r.cells.iter().enumerate() {
            j.push_str(&format!(
                concat!(
                    "      {{\"k\": {}, \"workers\": {}, \"secs\": {:.6}, ",
                    "\"speedup\": {:.4}, \"work\": {}, \"work_ratio\": {:.4}}}{}\n"
                ),
                c.shards,
                c.workers,
                c.wall.as_secs_f64(),
                r.speedup(c),
                c.work,
                r.work_ratio(c),
                if ci + 1 < r.cells.len() { "," } else { "" },
            ));
        }
        j.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str(&format!(
        "  \"geomean_speedup_k4\": {:.4},\n  \"geomean_over\": \"{}\"\n}}\n",
        headline.0, headline.1,
    ));
    std::fs::write(path, j).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

fn main() {
    let args = parse_args();
    assert!(
        !stint_faults::is_active(),
        "the batch study must run with no fault plan installed"
    );
    if let Some(b) = args.bench.as_deref() {
        if !NAMES.contains(&b) {
            eprintln!("--bench {b}: no such workload (have: {})", NAMES.join(", "));
            std::process::exit(2);
        }
    }
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "batch — sequential STINT replay vs K-sharded batch detection \
         (scale={}, best of {}, {} hw thread(s))",
        scale_name(args.scale),
        args.reps,
        hw
    );

    let mut rows: Vec<Row> = Vec::new();
    for name in NAMES {
        if args.bench.as_deref().is_some_and(|b| b != name) {
            continue;
        }
        rows.push(run_bench(name, args.scale, args.reps));
    }

    let mut header = vec!["bench".to_string(), "events".to_string(), "seq".to_string()];
    for k in SHARDS {
        header.push(format!("K={k}"));
    }
    header.push("work@8".to_string());
    header.push("ratio".to_string());
    header.push("MiB/s".to_string());
    header.push("large".to_string());
    let mut t = Table::new(header);
    for r in &rows {
        let mut cells = vec![r.bench.to_string(), r.events.to_string(), secs(r.seq)];
        for c in &r.cells {
            cells.push(format!("{:.2}x", r.speedup(c)));
        }
        let w8 = r.cells.last().map(|c| r.work_ratio(c)).unwrap_or(0.0);
        cells.push(format!("{w8:.3}x"));
        cells.push(format!("{:.3}", r.compression_ratio()));
        cells.push(format!("{:.1}", r.stream_mib_s()));
        cells.push(if r.large() { "yes" } else { "-" }.to_string());
        t.row(cells);
    }
    t.print();

    // Headline geomean: speedup at K=4 over large benches, falling back to
    // every bench when the scale produced no large trace.
    let large: Vec<f64> = rows
        .iter()
        .filter(|r| r.large())
        .filter_map(|r| r.speedup_at(4))
        .collect();
    let (pool, over) = if large.is_empty() {
        let all: Vec<f64> = rows.iter().filter_map(|r| r.speedup_at(4)).collect();
        (all, "all")
    } else {
        (large, "large")
    };
    let g = geomean(&pool);
    println!();
    println!(
        "geomean speedup at K=4 over {over} benches: {g:.2}x \
         ({} hw thread(s); the >1.5x bar applies at hw_threads >= 4)",
        hw
    );

    write_json(&args.out, args.scale, args.reps, hw, &rows, (g, over));
    println!("\nwrote {}", args.out);
}
