//! `parallel` — scaling study for the concurrent online detection mode
//! (`--online-parallel`, DePa timestamps).
//!
//! For every workload the binary times one sequential STINT detection of a
//! fresh program instance (the single-detector baseline), then times the
//! online pipeline at W ∈ {1, 2, 4, 8} pool workers with a fixed shard
//! count. Each cell reports `speedup = t_seq / t_online` **and the shard
//! work count** — the events actually routed to shard detectors across all
//! merge cycles, which stays within a whisker of the instrumentation stream
//! length regardless of the worker count (DePa queries are relabel-free, so
//! adding workers adds no maintenance work). The work-count ratio is the
//! machine-independent headline on a 1-core box; the wall-clock speedup
//! geomean at W=4 is recorded but — exactly like `BENCH_batch.json` — not
//! gated (`hw_threads` says whether it means anything).
//!
//! Every online run is cross-checked against the sequential baseline: the
//! race verdict and racy-word count must match exactly for every worker
//! count (the suite benchmarks are race-free, so both sides must report
//! zero). A mismatch is a detector bug and a hard failure, not a statistic.
//!
//! Flags: `--scale {test|s|m|paper}` (default `s`), `--reps N` (best-of-N
//! per cell, default 3), `--bench NAME`, `--out PATH` (default
//! `BENCH_parallel.json`).

use std::time::{Duration, Instant};
use stint::{detect_with, Config, Variant};
use stint_batchdet::{online_detect, OnlineConfig};
use stint_bench::*;
use stint_suite::{Scale, Workload, NAMES};

/// Worker-count axis of the study. Must be strictly increasing — `jsoncheck
/// parallel` verifies the emitted axis is monotone.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Address shards per online run (fixed so the worker axis varies exactly
/// one thing).
const SHARDS: usize = 4;

/// Events per strand-local delta before a merge cycle.
const CHUNK_EVENTS: usize = stint::DEFAULT_CHUNK_EVENTS;

/// A run with at least this many instrumentation events counts as *large*:
/// big enough that pool fan-out and merge-cycle overhead are amortized. The
/// headline geomean is computed over large benches only (falling back to
/// all benches if the scale produces none).
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
        out: "BENCH_parallel.json".to_string(),
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
    workers: usize,
    wall: Duration,
    /// Events routed to shard detectors (summed over shards and merge
    /// cycles) — the online phase's work count.
    work: u64,
    chunks: u64,
}

struct Row {
    bench: &'static str,
    events: u64,
    strands: usize,
    seq: Duration,
    /// DePa timestamp bytes at freeze — the substrate's whole footprint
    /// (immutable once published, shared by every worker).
    reach_bytes: u64,
    cells: Vec<Cell>,
}

impl Row {
    fn large(&self) -> bool {
        self.events >= LARGE_EVENTS
    }
    fn speedup(&self, cell: &Cell) -> f64 {
        self.seq.as_secs_f64() / cell.wall.as_secs_f64().max(1e-9)
    }
    fn speedup_at(&self, w: usize) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.workers == w)
            .map(|c| self.speedup(c))
    }
    /// Shard work relative to the instrumentation stream length at one W.
    fn work_ratio(&self, cell: &Cell) -> f64 {
        cell.work as f64 / (self.events.max(1)) as f64
    }
}

/// Best-of-N sequential STINT detection on fresh program instances; also
/// returns the racy-word count every online run must reproduce.
fn time_sequential(name: &'static str, scale: Scale, reps: u32) -> (Duration, usize) {
    let mut best = Duration::MAX;
    let mut racy = 0usize;
    for _ in 0..reps {
        let mut w = Workload::by_name(name, scale);
        let t0 = Instant::now();
        let o = detect_with(&mut w, Config::new(Variant::Stint));
        let wall = t0.elapsed();
        w.verify()
            .unwrap_or_else(|e| panic!("{name}: workload output wrong under STINT: {e}"));
        best = best.min(wall);
        racy = o.report.racy_words().len();
    }
    (best, racy)
}

/// Best-of-N online detection at one worker count, cross-checked against
/// the sequential racy-word count on every rep.
fn time_online(
    name: &'static str,
    scale: Scale,
    w: usize,
    reps: u32,
    expected_racy: usize,
) -> (Cell, u64, u64, usize) {
    let cfg = OnlineConfig {
        shards: SHARDS,
        workers: w,
        steal_seed: 0,
        chunk_events: CHUNK_EVENTS,
        witnesses: false,
        budget: Default::default(),
    };
    let mut best = Duration::MAX;
    let (mut work, mut chunks) = (0u64, 0u64);
    let (mut events, mut reach_bytes, mut strands) = (0u64, 0u64, 0usize);
    for _ in 0..reps {
        let mut wl = Workload::by_name(name, scale);
        let out = online_detect(&mut wl, &cfg)
            .unwrap_or_else(|e| panic!("{name}: online detection failed at W={w}: {e}"));
        wl.verify()
            .unwrap_or_else(|e| panic!("{name}: workload output wrong under online: {e}"));
        assert!(
            out.degraded.is_none(),
            "{name}: degraded online run at W={w} with no fault plan installed"
        );
        assert_eq!(
            out.merged.racy_words.len(),
            expected_racy,
            "{name}: online racy words diverge from sequential STINT at W={w}"
        );
        best = best.min(out.wall);
        work = out.shards.iter().map(|s| s.events).sum();
        chunks = out.chunks;
        events = out.events as u64;
        reach_bytes = out.reach_bytes;
        strands = out.strands;
    }
    (
        Cell {
            workers: w,
            wall: best,
            work,
            chunks,
        },
        events,
        reach_bytes,
        strands,
    )
}

fn run_bench(name: &'static str, scale: Scale, reps: u32) -> Row {
    let (seq, expected_racy) = time_sequential(name, scale, reps);
    let mut cells = Vec::new();
    let (mut events, mut reach_bytes, mut strands) = (0u64, 0u64, 0usize);
    for &w in &WORKERS {
        let (cell, ev, rb, st) = time_online(name, scale, w, reps, expected_racy);
        if events == 0 {
            (events, reach_bytes, strands) = (ev, rb, st);
        } else {
            assert_eq!(events, ev, "{name}: event count drifted across W");
        }
        cells.push(cell);
    }
    Row {
        bench: name,
        events,
        strands,
        seq,
        reach_bytes,
        cells,
    }
}

fn write_json(path: &str, scale: Scale, reps: u32, hw: usize, rows: &[Row], headline: (f64, &str)) {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"stint-bench-parallel-v1\",\n");
    j.push_str(&format!("  \"scale\": \"{}\",\n", scale_name(scale)));
    j.push_str(&format!("  \"reps\": {reps},\n"));
    j.push_str(&format!("  \"hw_threads\": {hw},\n"));
    j.push_str(&format!("  \"shards\": {SHARDS},\n"));
    j.push_str(&format!("  \"chunk_events\": {CHUNK_EVENTS},\n"));
    j.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        j.push_str(&format!(
            concat!(
                "    {{\"bench\": \"{}\", \"events\": {}, \"strands\": {}, ",
                "\"large\": {}, \"seq_secs\": {:.6}, \"depa_bytes\": {},\n",
                "     \"workers\": [\n"
            ),
            r.bench,
            r.events,
            r.strands,
            r.large(),
            r.seq.as_secs_f64(),
            r.reach_bytes,
        ));
        for (ci, c) in r.cells.iter().enumerate() {
            j.push_str(&format!(
                concat!(
                    "      {{\"w\": {}, \"secs\": {:.6}, \"speedup\": {:.4}, ",
                    "\"work\": {}, \"work_ratio\": {:.4}, \"chunks\": {}}}{}\n"
                ),
                c.workers,
                c.wall.as_secs_f64(),
                r.speedup(c),
                c.work,
                r.work_ratio(c),
                c.chunks,
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
        "  \"geomean_speedup_w4\": {:.4},\n  \"geomean_over\": \"{}\"\n}}\n",
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
        "the parallel study must run with no fault plan installed"
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
        "parallel — sequential STINT vs W-worker online detection over DePa \
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
    for w in WORKERS {
        header.push(format!("W={w}"));
    }
    header.push("work@8".to_string());
    header.push("depa KiB".to_string());
    header.push("large".to_string());
    let mut t = Table::new(header);
    for r in &rows {
        let mut cells = vec![r.bench.to_string(), r.events.to_string(), secs(r.seq)];
        for c in &r.cells {
            cells.push(format!("{:.2}x", r.speedup(c)));
        }
        let w8 = r.cells.last().map(|c| r.work_ratio(c)).unwrap_or(0.0);
        cells.push(format!("{w8:.3}x"));
        cells.push(format!("{:.1}", r.reach_bytes as f64 / 1024.0));
        cells.push(if r.large() { "yes" } else { "-" }.to_string());
        t.row(cells);
    }
    t.print();

    // Headline geomean: speedup at W=4 over large benches, falling back to
    // every bench when the scale produced no large run.
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
        "geomean speedup at W=4 over {over} benches: {g:.2}x \
         ({hw} hw thread(s); the >1.0x bar applies at hw_threads >= 4)"
    );

    write_json(&args.out, args.scale, args.reps, hw, &rows, (g, over));
    println!("\nwrote {}", args.out);
}
