//! Performance gate: machine-readable before/after numbers for the hot-path
//! optimizations (per-page shadow batching + reachability memoization).
//!
//! Runs the fig5/fig7 benchmark suite at the requested `--scale` (default
//! `s`) twice per variant — once with [`HotPath::LEGACY`] (the unoptimized
//! paths, kept in-tree precisely so they can serve as the baseline) and once
//! with the default hot path — and emits `BENCH_perfgate.json` with wall
//! times, access/interval counts and cache statistics. If a previous JSON is
//! present it prints the geomean deltas against it.
//!
//! Flags:
//! * `--scale {test|s|m|paper}` — workload size (default `s`);
//! * `--reps N` — minimum rep pairs per (bench, variant) cell (default 5);
//! * `--bench NAME` — run only that workload (investigating one bench);
//! * `--out PATH` — output file (default `BENCH_perfgate.json`);
//! * `--check` — exit nonzero if a word-granularity variant's geomean
//!   speedup < 1.0 (the optimized path must never lose to the legacy path),
//!   or if a previous JSON is present and any geomean fell more than
//!   [`BASELINE_NOISE`] below it — the fault-injection layer must be free
//!   when no plan is installed, so a fresh run may only differ from the
//!   committed baseline by benchmark noise. STINT's hot and legacy paths
//!   share the hook lane, so their ratio sits at 1.0 by construction; STINT
//!   is gated instead on the hot path's absolute `hot_ns_per_hook`: each
//!   bench is compared with its row in the previous JSON, and the geomean of
//!   those ratios must stay within the same noise band.
//!
//! Access-history flush timing is forced off ([`TimingMode::Off`]) so the
//! wall times contain no clock-read overhead.

use std::time::Duration;
use stint::{Config, HotPath, Outcome, TimingMode, Variant};
use stint_bench::*;
use stint_suite::{Scale, Workload, NAMES};

struct Args {
    scale: Scale,
    reps: u32,
    out: String,
    check: bool,
    bench: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut a = Args {
        scale: scale_from_args(),
        reps: 5,
        out: "BENCH_perfgate.json".to_string(),
        check: false,
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
            "--check" => a.check = true,
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

fn run_once(name: &str, scale: Scale, v: Variant, hot: HotPath) -> Outcome {
    let mut w = Workload::by_name(name, scale);
    let mut cfg = Config::new(v);
    cfg.collect_racy_words = false;
    cfg.hot = hot;
    let o = stint::detect_with(&mut w, cfg);
    assert!(
        o.report.is_race_free(),
        "{name} reported races under {v} — benchmark or detector bug"
    );
    o
}

/// Allowed geomean drop against the committed `BENCH_perfgate.json` before
/// `--check` fails. Wall times on a shared machine jitter run to run, but the
/// disabled fault-injection path is a single relaxed atomic load per
/// structure construction: anything beyond noise means the gate earned its
/// keep.
const BASELINE_NOISE: f64 = 0.15;

/// Sub-second workloads need more repetitions than `--reps` to beat scheduler
/// noise: rep pairs keep coming until each side has accumulated this much
/// measured wall time (or [`MAX_PAIRS`] caps the cell).
const MIN_CELL_SECS: f64 = 0.6;
const MAX_PAIRS: u32 = 50;

/// Best-of-N wall time for the legacy and hot paths, measured *interleaved*
/// (one untimed warmup of each, then legacy/hot alternating) so slow drift in
/// machine state — frequency scaling, cache warmth — cancels out instead of
/// biasing whichever side runs last. At least `reps` pairs run; fast cells
/// get extra pairs until the [`MIN_CELL_SECS`] time floor is met. Stats come
/// from the fastest run (counts are deterministic across reps, only the time
/// varies).
fn run_pair(name: &str, scale: Scale, v: Variant, reps: u32) -> (Outcome, Outcome) {
    run_once(name, scale, v, HotPath::LEGACY);
    run_once(name, scale, v, HotPath::default());
    let mut legacy: Option<Outcome> = None;
    let mut hot: Option<Outcome> = None;
    let mut spent = Duration::ZERO;
    let mut pairs = 0;
    while pairs < reps || (spent.as_secs_f64() < 2.0 * MIN_CELL_SECS && pairs < MAX_PAIRS) {
        let l = run_once(name, scale, v, HotPath::LEGACY);
        spent += l.wall;
        if legacy.as_ref().is_none_or(|b| l.wall < b.wall) {
            legacy = Some(l);
        }
        let h = run_once(name, scale, v, HotPath::default());
        spent += h.wall;
        if hot.as_ref().is_none_or(|b| h.wall < b.wall) {
            hot = Some(h);
        }
        pairs += 1;
    }
    (legacy.unwrap(), hot.unwrap())
}

struct Row {
    bench: &'static str,
    variant: Variant,
    legacy: Duration,
    hot: Outcome,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.legacy.as_secs_f64() / self.hot.wall.as_secs_f64().max(1e-9)
    }

    /// Wall time of the hot path per instrumentation hook delivered.
    fn hot_ns_per_hook(&self) -> f64 {
        let s = &self.hot.stats;
        self.hot.wall.as_secs_f64() * 1e9 / (s.read.hooks + s.write.hooks).max(1) as f64
    }
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(!s.contains(['"', '\\']));
    s
}

fn write_json(path: &str, scale: Scale, reps: u32, rows: &[Row], geomeans: &[(Variant, f64)]) {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"stint-perfgate-v1\",\n");
    j.push_str(&format!("  \"scale\": \"{}\",\n", scale_name(scale)));
    j.push_str(&format!("  \"reps\": {reps},\n"));
    j.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let s = &r.hot.stats;
        j.push_str(&format!(
            concat!(
                "    {{\"bench\": \"{}\", \"variant\": \"{}\", ",
                "\"legacy_secs\": {:.6}, \"hot_secs\": {:.6}, \"speedup\": {:.4}, ",
                "\"hot_ns_per_hook\": {:.3}, ",
                "\"intervals\": {}, \"words\": {}, \"strands_flushed\": {}, ",
                "\"hash_ops\": {}, \"treap_ops\": {}, ",
                "\"reach_hits\": {}, \"reach_misses\": {}, \"reach_hit_rate\": {:.4}, ",
                "\"hook_filter_hits\": {}, ",
                "\"page_batches\": {}, \"avg_page_batch_words\": {:.2}}}{}\n",
            ),
            json_escape_free(r.bench),
            json_escape_free(r.variant.name()),
            r.legacy.as_secs_f64(),
            r.hot.wall.as_secs_f64(),
            r.speedup(),
            r.hot_ns_per_hook(),
            s.total_intervals(),
            s.total_words(),
            s.strands_flushed,
            s.hash_ops,
            s.treap.ops,
            s.reach_hits,
            s.reach_misses,
            s.reach_hit_rate(),
            s.hook_filter_hits,
            s.page_batches,
            s.avg_page_batch_words(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"geomean_speedup\": {");
    for (i, (v, g)) in geomeans.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push_str(&format!("\"{}\": {:.4}", json_escape_free(v.name()), g));
    }
    j.push_str("}\n}\n");
    std::fs::write(path, j).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

/// Pull `"<key>": <number>` out of the `geomean_speedup` object of a previous
/// report (enough structure awareness for our own output format).
fn previous_geomean(content: &str, key: &str) -> Option<f64> {
    let obj = content.split("\"geomean_speedup\"").nth(1)?;
    let after = obj.split(&format!("\"{key}\":")).nth(1)?;
    let num: String = after
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// Pull one bench row's `hot_ns_per_hook` out of a previous (parsed) report.
fn previous_ns_per_hook(doc: &stint_bench::json::Value, bench: &str, variant: &str) -> Option<f64> {
    doc.get("benches")?.as_array()?.iter().find_map(|b| {
        let same = b.get("bench")?.as_str()? == bench && b.get("variant")?.as_str()? == variant;
        same.then(|| b.get("hot_ns_per_hook")?.as_f64())?
    })
}

/// Gate the space study's report (regenerated by the `space` binary; see
/// `scripts/perfgate.sh`): every row and every per-store case must satisfy
/// its Lemma 4.1 bound. Absent file = the study has not run; that is only a
/// warning, so a bare `perfgate --check` stays usable on its own.
fn check_space_report(path: &str) {
    let Ok(content) = std::fs::read_to_string(path) else {
        eprintln!("warning: no {path} (run the `space` binary to gate the space study)");
        return;
    };
    let doc = stint_bench::json::parse(&content).unwrap_or_else(|e| {
        eprintln!("FAIL: {path}: {e}");
        std::process::exit(1);
    });
    let fail = |msg: String| -> ! {
        eprintln!("FAIL: {path}: {msg}");
        std::process::exit(1);
    };
    if doc.get("schema").and_then(|s| s.as_str()) != Some("stint-space-v1") {
        fail("not a stint-space-v1 document".into());
    }
    let mut cases = 0usize;
    for (section, key) in [("rows", "lemma_ok"), ("lemma_per_store", "ok")] {
        let items = doc
            .get(section)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| fail(format!("missing {section} array")));
        if items.is_empty() {
            fail(format!("empty {section} array"));
        }
        for item in items {
            if item.get(key).and_then(|b| b.as_bool()) != Some(true) {
                fail(format!(
                    "Lemma 4.1 violation recorded in {section}: {item:?}"
                ));
            }
            cases += 1;
        }
    }
    println!("check passed: Lemma 4.1 holds in all {cases} recorded space cases");
}

/// Minimum geomean K=4 speedup the sharded batch detector must deliver —
/// enforced only when the report was produced on a machine with at least
/// four hardware threads. With fewer threads every shard time-slices one
/// core and a slowdown is the *expected* result, so the bar would only
/// measure the scheduler; the structural checks still run there.
const BATCH_SPEEDUP_BAR: f64 = 1.5;
const BATCH_HW_FLOOR: u64 = 4;
/// Work-count bound at K=1: the single shard must touch at most ~1.1x the
/// trace's events — the O(n) partition pass never rescans, so anything
/// beyond rounding slack means a clip-per-shard regression.
const BATCH_K1_WORK_BAR: f64 = 1.1;
/// Work-count bound at any K: total routed events stay near-linear in the
/// trace length (straddler clips and per-shard strand-end markers are the
/// only duplication). A clip-per-shard design would sit at K·n — ratio 8.0
/// on the K=8 cell — so 1.5 is a sharp gate with room for small traces.
const BATCH_WORK_BAR: f64 = 1.5;
/// The compressed chunked encoding must at least halve the v1 text size on
/// every *large* bench (tiny traces are header-overhead-bound).
const BATCH_COMPRESSION_BAR: f64 = 0.5;

/// Gate the batch-scalability report (regenerated by the `batch` binary; see
/// `scripts/perfgate.sh`), schema `stint-bench-batch-v2`. Structure first: a
/// strictly increasing shard axis per bench with speedup and work fields on
/// every cell, plus the compression sizes and streaming-ingest cell. Then
/// the machine-independent gates: K=1 work ratio within
/// [`BATCH_K1_WORK_BAR`], every cell's work ratio within
/// [`BATCH_WORK_BAR`] (near-linear partition scaling), large-bench
/// compression ratio within [`BATCH_COMPRESSION_BAR`], and positive
/// streaming throughput. Finally, on machines with [`BATCH_HW_FLOOR`]+
/// hardware threads, the recorded headline geomean at K=4 must clear
/// [`BATCH_SPEEDUP_BAR`]. Absent file = the study has not run; that is only
/// a warning, like the space report. A stale v1 report is a hard failure.
fn check_batch_report(path: &str) {
    let Ok(content) = std::fs::read_to_string(path) else {
        eprintln!("warning: no {path} (run the `batch` binary to gate the scalability study)");
        return;
    };
    let fail = |msg: String| -> ! {
        eprintln!("FAIL: {path}: {msg}");
        std::process::exit(1);
    };
    let doc = stint_bench::json::parse(&content).unwrap_or_else(|e| fail(e));
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some("stint-bench-batch-v2") => {}
        Some("stint-bench-batch-v1") => fail(
            "stale stint-bench-batch-v1 report; regenerate with the current \
             `batch` binary (emits v2 with work counts and compression)"
                .into(),
        ),
        _ => fail("not a stint-bench-batch-v2 document".into()),
    }
    let benches = doc
        .get("benches")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| fail("missing benches array".into()));
    if benches.is_empty() {
        fail("empty benches array".into());
    }
    let mut gated_cells = 0usize;
    for b in benches {
        let name = b.get("bench").and_then(|v| v.as_str()).unwrap_or("?");
        let large = b.get("large").and_then(|v| v.as_bool()).unwrap_or(false);
        let ratio = b
            .get("compression_ratio")
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| fail(format!("{name}: missing compression_ratio")));
        if large && ratio > BATCH_COMPRESSION_BAR {
            fail(format!(
                "{name}: compressed trace is {ratio:.3}x the v1 size \
                 (bar: {BATCH_COMPRESSION_BAR}x on large benches)"
            ));
        }
        let stream = b
            .get("stream")
            .unwrap_or_else(|| fail(format!("{name}: missing stream cell")));
        let mibs = stream
            .get("mib_per_sec")
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| fail(format!("{name}: stream cell without throughput")));
        if mibs <= 0.0 {
            fail(format!("{name}: non-positive streaming throughput"));
        }
        let shards = b
            .get("shards")
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| fail(format!("{name}: missing shards array")));
        let mut prev_k = 0u64;
        for s in shards {
            let k = s
                .get("k")
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| fail(format!("{name}: shard cell without k")));
            if k <= prev_k {
                fail(format!(
                    "{name}: shard axis not strictly increasing at k={k}"
                ));
            }
            prev_k = k;
            if s.get("speedup").and_then(|v| v.as_f64()).is_none() {
                fail(format!("{name}: shard cell k={k} without a speedup field"));
            }
            let wr = s
                .get("work_ratio")
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| fail(format!("{name}: shard cell k={k} without work_ratio")));
            let bar = if k == 1 {
                BATCH_K1_WORK_BAR
            } else {
                BATCH_WORK_BAR
            };
            if wr > bar {
                fail(format!(
                    "{name}: partition work at K={k} is {wr:.3}x the trace \
                     (bar: {bar}x — the O(n) pass must not rescan per shard)"
                ));
            }
            gated_cells += 1;
        }
        if prev_k == 0 {
            fail(format!("{name}: empty shard axis"));
        }
    }
    let hw = doc
        .get("hw_threads")
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| fail("missing hw_threads".into()));
    let g = doc
        .get("geomean_speedup_k4")
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail("missing geomean_speedup_k4".into()));
    println!(
        "check passed: batch work ratios within {BATCH_K1_WORK_BAR}x (K=1) / \
         {BATCH_WORK_BAR}x (all K) over {gated_cells} cells; large-bench \
         compression within {BATCH_COMPRESSION_BAR}x; stream throughput present"
    );
    if hw >= BATCH_HW_FLOOR {
        if g < BATCH_SPEEDUP_BAR {
            fail(format!(
                "batch geomean speedup at K=4 is {g:.2}x on {hw} hw threads \
                 (bar: {BATCH_SPEEDUP_BAR}x)"
            ));
        }
        println!(
            "check passed: batch K=4 geomean {g:.2}x clears the \
             {BATCH_SPEEDUP_BAR}x bar on {hw} hw threads"
        );
    } else {
        println!(
            "check passed: batch report structurally sound; speedup bar waived \
             (geomean {g:.2}x on {hw} hw thread(s), bar applies at >= {BATCH_HW_FLOOR})"
        );
    }
}

/// Wall-clock bar for the online mode at W=4: it must at least break even
/// against sequential STINT — enforced, like the batch bar, only on
/// machines with [`BATCH_HW_FLOOR`]+ hardware threads (the executor itself
/// stays sequential, so only the detection fraction parallelizes; on a
/// 1-core box every worker time-slices one core and a slowdown is the
/// expected result).
const PARALLEL_SPEEDUP_BAR: f64 = 1.0;
/// Work-count bound at any W: events routed to shard detectors across all
/// merge cycles stay near-linear in the instrumentation stream (straddler
/// clips and per-shard markers are the only duplication), independent of
/// the worker count — DePa timestamps are relabel-free, so extra workers
/// add queries, never maintenance work.
const PARALLEL_WORK_BAR: f64 = 1.5;

/// Gate the parallel-online scaling report (regenerated by the `parallel`
/// binary; see `scripts/perfgate.sh`), schema `stint-bench-parallel-v1`.
/// Structure first: a strictly increasing worker axis per bench with
/// speedup, work and merge-cycle fields on every cell. Then the
/// machine-independent gate: every cell's work ratio within
/// [`PARALLEL_WORK_BAR`]. Finally, on machines with [`BATCH_HW_FLOOR`]+
/// hardware threads, the recorded headline geomean at W=4 must clear
/// [`PARALLEL_SPEEDUP_BAR`]. Absent file = the study has not run; that is
/// only a warning, like the other reports.
fn check_parallel_report(path: &str) {
    let Ok(content) = std::fs::read_to_string(path) else {
        eprintln!(
            "warning: no {path} (run the `parallel` binary to gate the online scaling study)"
        );
        return;
    };
    let fail = |msg: String| -> ! {
        eprintln!("FAIL: {path}: {msg}");
        std::process::exit(1);
    };
    let doc = stint_bench::json::parse(&content).unwrap_or_else(|e| fail(e));
    if doc.get("schema").and_then(|s| s.as_str()) != Some("stint-bench-parallel-v1") {
        fail("not a stint-bench-parallel-v1 document".into());
    }
    let benches = doc
        .get("benches")
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| fail("missing benches array".into()));
    if benches.is_empty() {
        fail("empty benches array".into());
    }
    let mut gated_cells = 0usize;
    for b in benches {
        let name = b.get("bench").and_then(|v| v.as_str()).unwrap_or("?");
        if b.get("depa_bytes").and_then(|v| v.as_u64()).is_none() {
            fail(format!("{name}: missing depa_bytes"));
        }
        let workers = b
            .get("workers")
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| fail(format!("{name}: missing workers array")));
        let mut prev_w = 0u64;
        for s in workers {
            let w = s
                .get("w")
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| fail(format!("{name}: worker cell without w")));
            if w <= prev_w {
                fail(format!(
                    "{name}: worker axis not strictly increasing at w={w}"
                ));
            }
            prev_w = w;
            if s.get("speedup").and_then(|v| v.as_f64()).is_none() {
                fail(format!("{name}: worker cell w={w} without a speedup field"));
            }
            if s.get("chunks").and_then(|v| v.as_u64()).is_none() {
                fail(format!("{name}: worker cell w={w} without merge cycles"));
            }
            let wr = s
                .get("work_ratio")
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| fail(format!("{name}: worker cell w={w} without work_ratio")));
            if wr > PARALLEL_WORK_BAR {
                fail(format!(
                    "{name}: online shard work at W={w} is {wr:.3}x the stream \
                     (bar: {PARALLEL_WORK_BAR}x — worker count must not multiply work)"
                ));
            }
            gated_cells += 1;
        }
        if prev_w == 0 {
            fail(format!("{name}: empty worker axis"));
        }
    }
    let hw = doc
        .get("hw_threads")
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| fail("missing hw_threads".into()));
    let g = doc
        .get("geomean_speedup_w4")
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail("missing geomean_speedup_w4".into()));
    println!(
        "check passed: online work ratios within {PARALLEL_WORK_BAR}x over \
         {gated_cells} cells (worker count adds no maintenance work)"
    );
    if hw >= BATCH_HW_FLOOR {
        if g < PARALLEL_SPEEDUP_BAR {
            fail(format!(
                "online geomean speedup at W=4 is {g:.2}x on {hw} hw threads \
                 (bar: {PARALLEL_SPEEDUP_BAR}x)"
            ));
        }
        println!(
            "check passed: online W=4 geomean {g:.2}x clears the \
             {PARALLEL_SPEEDUP_BAR}x bar on {hw} hw threads"
        );
    } else {
        println!(
            "check passed: parallel report structurally sound; speedup bar waived \
             (geomean {g:.2}x on {hw} hw thread(s), bar applies at >= {BATCH_HW_FLOOR})"
        );
    }
}

/// Structural gate for `BENCH_serve.json` (the `serve_load` service study,
/// schema `stint-bench-serve-v2`): per-status results summing to the
/// session count, ordered latency percentiles, positive throughput, zero
/// lost races, every obs gauge drained to zero — plus the telemetry-plane
/// gates: the obs-off phase must have left the registry untouched and the
/// flight recorder empty, the journal replay must be clean, the daemon's
/// own latency histograms must agree with the driver, and the obs-full
/// soak must stay within 10% of obs-off throughput. Absent file = the
/// load study has not run; that is only a warning, like the other
/// reports.
fn check_serve_report(path: &str) {
    let Ok(content) = std::fs::read_to_string(path) else {
        eprintln!("warning: no {path} (run the `serve_load` binary to gate the service study)");
        return;
    };
    let fail = |msg: String| -> ! {
        eprintln!("FAIL: {path}: {msg}");
        std::process::exit(1);
    };
    let doc = stint_bench::json::parse(&content).unwrap_or_else(|e| fail(e));
    if doc.get("schema").and_then(|s| s.as_str()) == Some("stint-bench-serve-v1") {
        fail(
            "stale stint-bench-serve-v1 report — regenerate with the current \
             `serve_load` binary (two-phase obs study)"
                .into(),
        );
    }
    if doc.get("schema").and_then(|s| s.as_str()) != Some("stint-bench-serve-v2") {
        fail("not a stint-bench-serve-v2 document".into());
    }
    let sessions = doc
        .get("sessions")
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| fail("missing sessions".into()));
    if sessions == 0 {
        fail("zero sessions".into());
    }
    let results = doc
        .get("results")
        .unwrap_or_else(|| fail("missing results object".into()));
    let mut sum = 0u64;
    for key in ["ok", "racy", "usage", "degraded", "corrupt", "poisoned"] {
        sum += results
            .get(key)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| fail(format!("results missing {key:?}")));
    }
    if sum != sessions {
        fail(format!("results sum to {sum}, expected {sessions}"));
    }
    if doc.get("lost_races").and_then(|v| v.as_u64()) != Some(0) {
        fail("lost_races must be present and zero".into());
    }
    let p50 = doc
        .get("p50_ms")
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail("missing p50_ms".into()));
    let p99 = doc
        .get("p99_ms")
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail("missing p99_ms".into()));
    if p50 < 0.0 || p99 < p50 {
        fail(format!("bad latency percentiles p50={p50} p99={p99}"));
    }
    let sps = doc
        .get("sessions_per_sec")
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail("missing sessions_per_sec".into()));
    if sps <= 0.0 {
        fail("non-positive sessions_per_sec".into());
    }
    if doc.get("gauges_zero_after_drain").and_then(|v| v.as_bool()) != Some(true) {
        fail("gauges_zero_after_drain is not true".into());
    }
    // The telemetry-plane gates.
    for key in [
        "obs_off_registry_untouched",
        "flight_idle_obs_off",
        "journal_clean",
        "latency_agree",
    ] {
        if doc.get(key).and_then(|v| v.as_bool()) != Some(true) {
            fail(format!("{key} is not true"));
        }
    }
    if doc.get("journal_records").and_then(|v| v.as_u64()) == Some(0) {
        fail("zero journal_records in the obs-full phase".into());
    }
    let overhead = doc
        .get("obs_overhead_ratio")
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail("missing obs_overhead_ratio".into()));
    if overhead > 1.10 {
        fail(format!(
            "obs-full soak is {:.1}% slower than obs-off (limit 10%)",
            (overhead - 1.0) * 100.0
        ));
    }
    println!(
        "check passed: serve study — {sessions} sessions, statuses sum, no lost \
         races, p50 {p50:.2}ms <= p99 {p99:.2}ms, {sps:.0}/s, obs overhead \
         {:+.1}% (limit +10%), daemon latency agrees, journal clean, gauges drained",
        (overhead - 1.0) * 100.0
    );
}

fn main() {
    let args = parse_args();
    // The numbers below are only meaningful on the faults-disabled path; a
    // stray plan (say, an inherited STINT_FAULTS that some caller installed)
    // would silently measure the degraded detector instead.
    assert!(
        !stint_faults::is_active(),
        "perfgate must run with no fault plan installed"
    );
    // Same reasoning for the observability layer: its disabled path (one
    // relaxed load per instrumented site) is what this gate certifies.
    assert!(
        !stint::obs::is_enabled(),
        "perfgate must run with observability disabled (unset STINT_OBS)"
    );
    // No clock reads inside strand-end flushes while we measure wall time.
    // set_mode returns the latched mode; anything else means some earlier
    // code latched timing on and the wall-clock numbers would be polluted.
    assert_eq!(
        stint::timing::set_mode(TimingMode::Off),
        TimingMode::Off,
        "perfgate must latch timing off before any detector runs"
    );
    let previous = std::fs::read_to_string(&args.out).ok();

    println!(
        "perfgate — legacy vs hot path, fig5/fig7 suite (scale={}, best of {})",
        scale_name(args.scale),
        args.reps
    );

    if let Some(b) = args.bench.as_deref() {
        if !NAMES.contains(&b) {
            eprintln!("--bench {b}: no such workload (have: {})", NAMES.join(", "));
            std::process::exit(2);
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    for name in NAMES {
        if args.bench.as_deref().is_some_and(|b| b != name) {
            continue;
        }
        for v in Variant::ALL {
            let (legacy, hot) = run_pair(name, args.scale, v, args.reps);
            rows.push(Row {
                bench: name,
                variant: v,
                legacy: legacy.wall,
                hot,
            });
        }
    }

    let mut t = Table::new(vec![
        "bench",
        "variant",
        "legacy",
        "hot",
        "speedup",
        "hot ns/hook",
        "reach hit%",
        "batch avg",
    ]);
    for r in &rows {
        let s = &r.hot.stats;
        t.row(vec![
            r.bench.to_string(),
            r.variant.name().to_string(),
            secs(r.legacy),
            secs(r.hot.wall),
            format!("{:.2}x", r.speedup()),
            format!("{:.2}", r.hot_ns_per_hook()),
            format!("{:.1}", 100.0 * s.reach_hit_rate()),
            format!("{:.1}", s.avg_page_batch_words()),
        ]);
    }
    t.print();

    let mut geomeans: Vec<(Variant, f64)> = Vec::new();
    println!();
    for v in Variant::ALL {
        let sp: Vec<f64> = rows
            .iter()
            .filter(|r| r.variant == v)
            .map(Row::speedup)
            .collect();
        let g = geomean(&sp);
        if let Some(prev) = previous
            .as_deref()
            .and_then(|c| previous_geomean(c, v.name()))
        {
            println!("{v}: geomean speedup {g:.2}x (previous run: {prev:.2}x)");
        } else {
            println!("{v}: geomean speedup {g:.2}x");
        }
        geomeans.push((v, g));
    }

    write_json(&args.out, args.scale, args.reps, &rows, &geomeans);
    println!("\nwrote {}", args.out);

    if args.check {
        let losers: Vec<String> = geomeans
            .iter()
            .filter(|(v, g)| *v != Variant::Stint && *g < 1.0)
            .map(|(v, g)| format!("{v} ({g:.2}x)"))
            .collect();
        if !losers.is_empty() {
            eprintln!(
                "FAIL: hot path slower than legacy for: {}",
                losers.join(", ")
            );
            std::process::exit(1);
        }
        println!("check passed: hot path no slower than legacy for every word-granularity variant");

        // STINT: the hot path's own per-hook price must hold. Judged, like
        // every timing here, by the geomean over benches, never one cell.
        if let Some(doc) = previous
            .as_deref()
            .and_then(|c| stint_bench::json::parse(c).ok())
        {
            let ratios: Vec<(&str, f64)> = rows
                .iter()
                .filter(|r| r.variant == Variant::Stint)
                .filter_map(|r| {
                    let prev = previous_ns_per_hook(&doc, r.bench, r.variant.name())?;
                    Some((r.bench, r.hot_ns_per_hook() / prev))
                })
                .collect();
            if ratios.is_empty() {
                println!("note: previous JSON has no STINT hot_ns_per_hook; nothing to gate it on");
            } else {
                let g = geomean(&ratios.iter().map(|(_, x)| *x).collect::<Vec<_>>());
                let cells: Vec<String> =
                    ratios.iter().map(|(b, x)| format!("{b} {x:.2}x")).collect();
                println!("STINT hot ns/hook vs previous run: {}", cells.join(", "));
                if g > 1.0 + BASELINE_NOISE {
                    eprintln!(
                        "FAIL: STINT hot-path ns/hook is {g:.2}x the previous baseline \
                         (geomean over benches; allowed {:.2}x)",
                        1.0 + BASELINE_NOISE
                    );
                    std::process::exit(1);
                }
                println!(
                    "check passed: STINT hot-path ns/hook at {g:.2}x the previous baseline \
                     (geomean over benches; allowed {:.2}x)",
                    1.0 + BASELINE_NOISE
                );
            }
        }

        // Zero-overhead guard: with no plan installed, this run must sit
        // within noise of the committed baseline geomeans.
        if let Some(content) = previous.as_deref() {
            let regressed: Vec<String> = geomeans
                .iter()
                .filter_map(|(v, g)| {
                    previous_geomean(content, v.name())
                        .filter(|prev| *g < prev * (1.0 - BASELINE_NOISE))
                        .map(|prev| format!("{v} ({g:.2}x vs baseline {prev:.2}x)"))
                })
                .collect();
            if !regressed.is_empty() {
                eprintln!(
                    "FAIL: geomean fell more than {:.0}% below the previous baseline \
                     (the disabled fault layer must be free) for: {}",
                    BASELINE_NOISE * 100.0,
                    regressed.join(", ")
                );
                std::process::exit(1);
            }
            println!(
                "check passed: geomeans within {:.0}% of the previous baseline \
                 (fault layer free when disabled)",
                BASELINE_NOISE * 100.0
            );
        }

        check_space_report("BENCH_space.json");
        check_batch_report("BENCH_batch.json");
        check_parallel_report("BENCH_parallel.json");
        check_serve_report("BENCH_serve.json");
    }

    // Disabled observability must stay disabled: if any counter registered,
    // something bypassed the `is_enabled` gate and the whole suite above
    // measured an instrumented build.
    assert!(
        !stint::obs::registry_initialized(),
        "observability registry initialized during a disabled-obs run \
         (an instrumented site bypassed the is_enabled gate)"
    );
    // Same for the space gauges specifically: every arena allocated and
    // dropped above, yet with observability off no gauge may have recorded
    // a byte (the snapshot is empty because nothing ever registered).
    assert!(
        stint::obs::gauges_snapshot().is_empty(),
        "space gauges recorded bytes during a disabled-obs run"
    );
}
