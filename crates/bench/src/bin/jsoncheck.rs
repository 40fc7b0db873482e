//! `jsoncheck` — dependency-free validator for the harness's JSON documents.
//!
//! The smoke scripts (`scripts/obs_smoke.sh`, `scripts/mem_smoke.sh`) used to
//! require `python3` for JSON validation and the cross-document agreement
//! check; this binary provides the same checks so the gates run on machines
//! with neither Python nor `jq`.
//!
//! ```text
//! jsoncheck validate FILE...        each file must parse as JSON
//! jsoncheck agree STATS METRICS     per-run detector stats summed across
//!                                   STATS runs must equal the METRICS
//!                                   registry counters exactly
//! jsoncheck memseries SERIES [STATS]
//!                                   SERIES must be a non-empty memory time
//!                                   series with monotone timestamps; with
//!                                   STATS, the gauge watermarks must bound
//!                                   the detector's byte stats and Lemma 4.1
//!                                   must hold on the reported watermarks
//! jsoncheck batch BATCH             BATCH must be a stint-bench-batch-v2
//!                                   scalability report: per bench a
//!                                   strictly increasing shard axis with
//!                                   positive timings, speedup and
//!                                   work-count fields, compression sizes,
//!                                   the streaming-ingest cell, plus the
//!                                   hw_threads-stamped headline geomean;
//!                                   partition work within 1.1x (K=1) /
//!                                   1.5x of the trace, large-bench
//!                                   compression within 0.5x of v1;
//!                                   a stale v1 report exits 2
//! jsoncheck parallel PARALLEL       PARALLEL must be a
//!                                   stint-bench-parallel-v1 scaling report:
//!                                   per bench a strictly increasing worker
//!                                   axis with positive timings, speedup,
//!                                   work-count and merge-cycle fields, the
//!                                   DePa footprint, plus the
//!                                   hw_threads-stamped headline geomean;
//!                                   online shard work within 1.5x of the
//!                                   stream at every W
//! jsoncheck serve SERVE             SERVE must be a stint-bench-serve-v2
//!                                   load study: per-status results summing
//!                                   to the session count, ordered latency
//!                                   percentiles, positive throughput, zero
//!                                   lost races, gauges drained to zero,
//!                                   obs-off phase inert, journal clean,
//!                                   daemon/driver latency agreement,
//!                                   obs-full soak within 10% of obs-off;
//!                                   a stale v1 report exits 2
//! jsoncheck prom FILE               FILE must be a well-formed Prometheus
//!                                   text exposition: every sample family
//!                                   preceded by a # TYPE line, numeric
//!                                   values, histogram buckets cumulative
//!                                   with le="+Inf" equal to _count
//! jsoncheck journal FILE            FILE must be a stint-journal-v1
//!                                   session journal: magic line, clean
//!                                   varint+FNV-1a framing, every record a
//!                                   decodable session event
//! jsoncheck report FILE             FILE must be a stint-report-v1 race
//!                                   report card: per run a kept count that
//!                                   matches the races array, an explicit
//!                                   truncated marker consistent with
//!                                   total vs kept, coalesced racy
//!                                   intervals covering racy_words, and
//!                                   well-formed races (known kind,
//!                                   word_lo < word_hi, witness either
//!                                   null or structurally complete)
//! ```
//!
//! Exit codes: 0 = all checks passed, 1 = a check failed, 2 = usage error.

use stint_bench::json::{parse, Value};

fn fail(msg: String) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

fn load(path: &str) -> Value {
    let content =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    parse(&content).unwrap_or_else(|e| fail(format!("{path}: {e}")))
}

fn schema(doc: &Value, path: &str, want: &str) {
    let got = doc.get("schema").and_then(Value::as_str).unwrap_or("");
    if got != want {
        fail(format!("{path}: schema is {got:?}, expected {want:?}"));
    }
}

fn u64_field(v: &Value, key: &str, ctx: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| fail(format!("{ctx}: missing integer field {key:?}")))
}

/// The obs_smoke agreement: the stats dump and the metrics registry are fed
/// from the same `DetectorStats::fields()` source, so summing any detector
/// counter across the runs in stats.json must reproduce the metrics value.
fn agree(stats_path: &str, metrics_path: &str) {
    let stats = load(stats_path);
    let metrics = load(metrics_path);
    schema(&stats, stats_path, "stint-stats-v1");
    schema(&metrics, metrics_path, "stint-obs-metrics-v1");
    let runs = stats
        .get("runs")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(format!("{stats_path}: no runs array")));
    if runs.len() < 2 {
        fail(format!(
            "{stats_path}: expected every variant, got {} run(s)",
            runs.len()
        ));
    }
    let counters = metrics
        .get("counters")
        .unwrap_or_else(|| fail(format!("{metrics_path}: no counters object")));
    let keys = runs[0]
        .get("stats")
        .and_then(Value::as_object)
        .unwrap_or_else(|| fail(format!("{stats_path}: run 0 has no stats object")));
    for (key, _) in keys {
        let want: u64 = runs
            .iter()
            .map(|r| {
                r.get("stats")
                    .map(|s| u64_field(s, key, stats_path))
                    .unwrap_or_else(|| fail(format!("{stats_path}: run without stats")))
            })
            .sum();
        let got = counters.get(key).and_then(Value::as_u64);
        if got != Some(want) {
            fail(format!(
                "{key}: stats.json sums to {want}, metrics.json says {got:?}"
            ));
        }
    }
    println!(
        "ok: {} detector counters agree across {} variants",
        keys.len(),
        runs.len()
    );
}

/// The mem_smoke checks: a non-empty series with monotone timestamps, and —
/// when the stats dump is provided — watermark/stats agreement plus the
/// Lemma 4.1 bound on the measured watermarks.
fn memseries(series_path: &str, stats_path: Option<&str>) {
    let series = load(series_path);
    schema(&series, series_path, "stint-obs-memseries-v1");
    let samples = series
        .get("samples")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(format!("{series_path}: no samples array")));
    if samples.is_empty() {
        fail(format!("{series_path}: empty sample series"));
    }
    let mut prev = 0u64;
    for (i, s) in samples.iter().enumerate() {
        let t = u64_field(s, "t_ns", series_path);
        if t < prev {
            fail(format!(
                "{series_path}: sample {i} t_ns={t} precedes {prev} (not monotone)"
            ));
        }
        prev = t;
        if s.get("gauges").and_then(Value::as_object).is_none() {
            fail(format!("{series_path}: sample {i} has no gauges object"));
        }
    }
    println!(
        "ok: {} samples, timestamps monotone over {} ns",
        samples.len(),
        prev
    );

    let Some(stats_path) = stats_path else { return };
    let stats = load(stats_path);
    schema(&stats, stats_path, "stint-stats-v1");
    let gauges = stats
        .get("gauges")
        .unwrap_or_else(|| fail(format!("{stats_path}: no gauges object")));
    let treap_hw = gauges
        .get("ivtree.bytes")
        .map(|g| u64_field(g, "hw", stats_path));
    let runs = stats
        .get("runs")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(format!("{stats_path}: no runs array")));
    for r in runs {
        let s = r
            .get("stats")
            .unwrap_or_else(|| fail(format!("{stats_path}: run without stats")));
        let inserts = u64_field(s, "detector.treap_inserts", stats_path);
        if inserts == 0 {
            continue; // a hash-variant run; nothing tree-shaped to bound
        }
        let ah = u64_field(s, "detector.ah_bytes", stats_path);
        let len_hw = u64_field(s, "detector.treap_len_hw", stats_path);
        // Two stores (read tree + write tree), so the merged Lemma 4.1
        // bound is 2m + 2.
        if len_hw > 2 * inserts + 2 {
            fail(format!(
                "Lemma 4.1 violated: treap_len_hw={len_hw} > 2*{inserts}+2"
            ));
        }
        if let Some(hw) = treap_hw {
            if ah > hw {
                fail(format!(
                    "detector.ah_bytes={ah} exceeds the ivtree.bytes watermark {hw}"
                ));
            }
        }
    }
    println!("ok: gauge watermarks bound the detector byte stats (Lemma 4.1 holds)");
}

/// Work-count bound at K=1: the partition pass is the identity split, so
/// the shard detector sees the trace plus at most a few markers.
const BATCH_K1_WORK_BAR: f64 = 1.1;
/// Work-count bound at any K: straddler clips and per-shard markers are the
/// only duplication — the O(n) pass must not rescan per shard.
const BATCH_WORK_BAR: f64 = 1.5;
/// The compressed chunked encoding must at least halve the v1 text size on
/// every *large* bench (tiny traces are header-overhead-bound).
const BATCH_COMPRESSION_BAR: f64 = 0.5;
/// Work-count bound of the online mode at any W: DePa timestamps are
/// relabel-free, so extra workers add queries, never maintenance work.
const PARALLEL_WORK_BAR: f64 = 1.5;
/// The obs-full soak must hold within 10% of obs-off throughput.
const OBS_OVERHEAD_BAR: f64 = 1.10;

/// Gate on the batch-scalability report (`BENCH_batch.json` from the `batch`
/// binary, schema `stint-bench-batch-v2`): the shard axis must be strictly
/// increasing per bench, every cell must carry positive timings plus
/// speedup and work-count fields with the work ratio inside
/// [`BATCH_K1_WORK_BAR`] / [`BATCH_WORK_BAR`], every bench must carry the
/// compression sizes (large benches inside [`BATCH_COMPRESSION_BAR`]) and
/// the streaming-ingest cell, and the headline geomean must be stamped with
/// the machine's thread count. The counts are machine-independent; wall
/// times and speedups are recorded, not gated. A stale v1 report is a
/// *loud* usage failure (exit 2): regenerate it with the current `batch`
/// binary rather than gating on numbers that no longer measure the
/// partition pass.
fn batch(path: &str) {
    let doc = load(path);
    let got = doc.get("schema").and_then(Value::as_str).unwrap_or("");
    if got == "stint-bench-batch-v1" {
        eprintln!(
            "FAIL: {path}: stale stint-bench-batch-v1 report — the batch study \
             now emits stint-bench-batch-v2 (work counts + compression + \
             streaming throughput); regenerate with the `batch` binary"
        );
        std::process::exit(2);
    }
    schema(&doc, path, "stint-bench-batch-v2");
    let f64_field = |v: &Value, key: &str, ctx: &str| -> f64 {
        v.get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| fail(format!("{ctx}: missing numeric field {key:?}")))
    };
    let hw = u64_field(&doc, "hw_threads", path);
    if hw == 0 {
        fail(format!("{path}: hw_threads is 0"));
    }
    u64_field(&doc, "stream_k", path);
    let benches = doc
        .get("benches")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(format!("{path}: no benches array")));
    if benches.is_empty() {
        fail(format!("{path}: empty benches array"));
    }
    let mut cells = 0usize;
    for b in benches {
        let name = b
            .get("bench")
            .and_then(Value::as_str)
            .unwrap_or_else(|| fail(format!("{path}: bench entry without a name")));
        let ctx = format!("{path}: {name}");
        if f64_field(b, "seq_secs", &ctx) <= 0.0 {
            fail(format!("{ctx}: non-positive seq_secs"));
        }
        let large = b
            .get("large")
            .and_then(Value::as_bool)
            .unwrap_or_else(|| fail(format!("{ctx}: missing boolean field \"large\"")));
        if u64_field(b, "uncompressed_bytes", &ctx) == 0 {
            fail(format!("{ctx}: zero uncompressed_bytes"));
        }
        if u64_field(b, "compressed_bytes", &ctx) == 0 {
            fail(format!("{ctx}: zero compressed_bytes"));
        }
        let ratio = f64_field(b, "compression_ratio", &ctx);
        if ratio <= 0.0 {
            fail(format!("{ctx}: non-positive compression_ratio"));
        }
        if large && ratio > BATCH_COMPRESSION_BAR {
            fail(format!(
                "{ctx}: compressed trace is {ratio:.3}x the v1 size \
                 (bar: {BATCH_COMPRESSION_BAR}x on large benches)"
            ));
        }
        let stream = b
            .get("stream")
            .unwrap_or_else(|| fail(format!("{ctx}: missing stream cell")));
        u64_field(stream, "k", &ctx);
        if f64_field(stream, "secs", &ctx) <= 0.0 {
            fail(format!("{ctx}: non-positive stream secs"));
        }
        if u64_field(stream, "bytes", &ctx) == 0 {
            fail(format!("{ctx}: zero stream bytes"));
        }
        if u64_field(stream, "chunks", &ctx) == 0 {
            fail(format!("{ctx}: zero stream chunks"));
        }
        u64_field(stream, "runs", &ctx);
        u64_field(stream, "wholesale_runs", &ctx);
        if f64_field(stream, "mib_per_sec", &ctx) <= 0.0 {
            fail(format!("{ctx}: non-positive stream throughput"));
        }
        let shards = b
            .get("shards")
            .and_then(Value::as_array)
            .unwrap_or_else(|| fail(format!("{ctx}: no shards array")));
        if shards.is_empty() {
            fail(format!("{ctx}: empty shard axis"));
        }
        let mut prev_k = 0u64;
        for s in shards {
            let k = u64_field(s, "k", &ctx);
            if k <= prev_k {
                fail(format!(
                    "{ctx}: shard axis not strictly increasing (k={k} after {prev_k})"
                ));
            }
            prev_k = k;
            u64_field(s, "workers", &ctx);
            if f64_field(s, "secs", &ctx) <= 0.0 {
                fail(format!("{ctx}: non-positive secs at k={k}"));
            }
            if f64_field(s, "speedup", &ctx) <= 0.0 {
                fail(format!("{ctx}: non-positive speedup at k={k}"));
            }
            u64_field(s, "work", &ctx);
            let wr = f64_field(s, "work_ratio", &ctx);
            let bar = if k == 1 {
                BATCH_K1_WORK_BAR
            } else {
                BATCH_WORK_BAR
            };
            if wr <= 0.0 || wr > bar {
                fail(format!(
                    "{ctx}: partition work at K={k} is {wr:.3}x the trace (bar: {bar}x)"
                ));
            }
            cells += 1;
        }
    }
    f64_field(&doc, "geomean_speedup_k4", path);
    if doc.get("geomean_over").and_then(Value::as_str).is_none() {
        fail(format!("{path}: missing geomean_over"));
    }
    println!(
        "ok: {} benches x {cells} cells, shard axes monotone, work within \
         {BATCH_K1_WORK_BAR}x (K=1) / {BATCH_WORK_BAR}x, large-bench compression \
         within {BATCH_COMPRESSION_BAR}x, stream throughput present (hw_threads={hw})",
        benches.len()
    );
}

/// Gate on the parallel-online scaling report (`BENCH_parallel.json` from
/// the `parallel` binary, schema `stint-bench-parallel-v1`): the worker axis
/// must be strictly increasing per bench, every cell must carry positive
/// timings plus speedup, work-count and merge-cycle fields with the work
/// ratio inside [`PARALLEL_WORK_BAR`], every bench must carry the DePa
/// footprint, and the headline geomean must be stamped with the machine's
/// thread count.
fn parallel(path: &str) {
    let doc = load(path);
    schema(&doc, path, "stint-bench-parallel-v1");
    let f64_field = |v: &Value, key: &str, ctx: &str| -> f64 {
        v.get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| fail(format!("{ctx}: missing numeric field {key:?}")))
    };
    let hw = u64_field(&doc, "hw_threads", path);
    if hw == 0 {
        fail(format!("{path}: hw_threads is 0"));
    }
    if u64_field(&doc, "shards", path) == 0 {
        fail(format!("{path}: zero shards"));
    }
    if u64_field(&doc, "chunk_events", path) == 0 {
        fail(format!("{path}: zero chunk_events"));
    }
    let benches = doc
        .get("benches")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(format!("{path}: no benches array")));
    if benches.is_empty() {
        fail(format!("{path}: empty benches array"));
    }
    let mut cells = 0usize;
    for b in benches {
        let name = b
            .get("bench")
            .and_then(Value::as_str)
            .unwrap_or_else(|| fail(format!("{path}: bench entry without a name")));
        let ctx = format!("{path}: {name}");
        if u64_field(b, "events", &ctx) == 0 {
            fail(format!("{ctx}: zero events"));
        }
        u64_field(b, "strands", &ctx);
        if f64_field(b, "seq_secs", &ctx) <= 0.0 {
            fail(format!("{ctx}: non-positive seq_secs"));
        }
        if b.get("large").and_then(Value::as_bool).is_none() {
            fail(format!("{ctx}: missing boolean field \"large\""));
        }
        if u64_field(b, "depa_bytes", &ctx) == 0 {
            fail(format!("{ctx}: zero depa_bytes"));
        }
        let workers = b
            .get("workers")
            .and_then(Value::as_array)
            .unwrap_or_else(|| fail(format!("{ctx}: no workers array")));
        if workers.is_empty() {
            fail(format!("{ctx}: empty worker axis"));
        }
        let mut prev_w = 0u64;
        for s in workers {
            let w = u64_field(s, "w", &ctx);
            if w <= prev_w {
                fail(format!(
                    "{ctx}: worker axis not strictly increasing (w={w} after {prev_w})"
                ));
            }
            prev_w = w;
            if f64_field(s, "secs", &ctx) <= 0.0 {
                fail(format!("{ctx}: non-positive secs at w={w}"));
            }
            if f64_field(s, "speedup", &ctx) <= 0.0 {
                fail(format!("{ctx}: non-positive speedup at w={w}"));
            }
            if u64_field(s, "work", &ctx) == 0 {
                fail(format!("{ctx}: zero work at w={w}"));
            }
            let wr = f64_field(s, "work_ratio", &ctx);
            if wr <= 0.0 || wr > PARALLEL_WORK_BAR {
                fail(format!(
                    "{ctx}: online shard work at W={w} is {wr:.3}x the stream \
                     (bar: {PARALLEL_WORK_BAR}x — worker count must not multiply work)"
                ));
            }
            if u64_field(s, "chunks", &ctx) == 0 {
                fail(format!("{ctx}: zero merge cycles at w={w}"));
            }
            cells += 1;
        }
    }
    f64_field(&doc, "geomean_speedup_w4", path);
    if doc.get("geomean_over").and_then(Value::as_str).is_none() {
        fail(format!("{path}: missing geomean_over"));
    }
    println!(
        "ok: {} benches x {cells} cells, worker axes monotone, work within \
         {PARALLEL_WORK_BAR}x, merge cycles and DePa footprints present (hw_threads={hw})",
        benches.len()
    );
}

/// Gate on `BENCH_serve.json` (the `serve_load` load study): the per-status
/// result counts must sum to the session count, the latency percentiles
/// must be ordered and positive, throughput must be positive, no racy
/// session may have been answered `ok`, and every obs gauge must have
/// reconciled to zero after the drain — plus the telemetry plane: the
/// obs-off phase left the registry untouched and the flight recorder empty,
/// the journal replay is clean, the daemon's own latency histograms agree
/// with the driver, and the obs-full soak stays inside [`OBS_OVERHEAD_BAR`]
/// of obs-off throughput.
fn serve(path: &str) {
    let doc = load(path);
    let got = doc.get("schema").and_then(Value::as_str).unwrap_or("");
    if got == "stint-bench-serve-v1" {
        eprintln!(
            "FAIL: {path}: stale stint-bench-serve-v1 report — the load study \
             now emits stint-bench-serve-v2 (two-phase obs overhead + daemon \
             latency cross-check + journal replay); regenerate with the \
             `serve_load` binary"
        );
        std::process::exit(2);
    }
    schema(&doc, path, "stint-bench-serve-v2");
    let sessions = u64_field(&doc, "sessions", path);
    if sessions == 0 {
        fail(format!("{path}: zero sessions"));
    }
    if u64_field(&doc, "hw_threads", path) == 0 {
        fail(format!("{path}: hw_threads is 0"));
    }
    u64_field(&doc, "session_workers", path);
    u64_field(&doc, "queue_depth", path);
    let results = doc
        .get("results")
        .unwrap_or_else(|| fail(format!("{path}: no results object")));
    let mut sum = 0u64;
    for key in ["ok", "racy", "usage", "degraded", "corrupt", "poisoned"] {
        sum += u64_field(results, key, path);
    }
    if sum != sessions {
        fail(format!(
            "{path}: results sum to {sum}, expected {sessions} sessions"
        ));
    }
    if u64_field(results, "racy", path) == 0 {
        fail(format!(
            "{path}: no racy sessions — the mixed-traffic mix must include racy traces"
        ));
    }
    u64_field(&doc, "busy_rejections", path);
    if u64_field(&doc, "lost_races", path) != 0 {
        fail(format!("{path}: lost_races is nonzero"));
    }
    let f64_field = |key: &str| -> f64 {
        doc.get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| fail(format!("{path}: missing numeric field {key:?}")))
    };
    let p50 = f64_field("p50_ms");
    let p99 = f64_field("p99_ms");
    if p50 < 0.0 || p99 < p50 {
        fail(format!(
            "{path}: bad latency percentiles p50={p50} p99={p99}"
        ));
    }
    if f64_field("sessions_per_sec") <= 0.0 {
        fail(format!("{path}: non-positive sessions_per_sec"));
    }
    if f64_field("sessions_per_sec_obs_off") <= 0.0 {
        fail(format!("{path}: non-positive sessions_per_sec_obs_off"));
    }
    if f64_field("sessions_per_sec_obs_full") <= 0.0 {
        fail(format!("{path}: non-positive sessions_per_sec_obs_full"));
    }
    let overhead = f64_field("obs_overhead_ratio");
    if overhead <= 0.0 || overhead > OBS_OVERHEAD_BAR {
        fail(format!(
            "{path}: obs-full soak is {:+.1}% against obs-off (limit +10%)",
            (overhead - 1.0) * 100.0
        ));
    }
    if f64_field("wall_secs") <= 0.0 {
        fail(format!("{path}: non-positive wall_secs"));
    }
    // The daemon's own histogram estimates ride along, ordered like
    // percentiles; `latency_agree` below is the driver's verdict on them.
    let dp50 = f64_field("daemon_p50_ms");
    let dp99 = f64_field("daemon_p99_ms");
    if dp50 < 0.0 || dp99 < dp50 {
        fail(format!(
            "{path}: bad daemon latency percentiles p50={dp50} p99={dp99}"
        ));
    }
    f64_field("latency_p50_ratio");
    f64_field("latency_p99_ratio");
    for key in [
        "latency_agree",
        "obs_off_registry_untouched",
        "flight_idle_obs_off",
        "journal_clean",
    ] {
        if doc.get(key).and_then(Value::as_bool) != Some(true) {
            fail(format!("{path}: {key} is not true"));
        }
    }
    if u64_field(&doc, "journal_records", path) == 0 {
        fail(format!(
            "{path}: zero journal_records — the obs-full phase must journal"
        ));
    }
    if doc.get("gauges_zero_after_drain").and_then(Value::as_bool) != Some(true) {
        fail(format!("{path}: gauges_zero_after_drain is not true"));
    }
    println!(
        "ok: {sessions} sessions, statuses sum, no lost races, \
         p50 {p50:.2}ms <= p99 {p99:.2}ms, obs overhead {:+.1}% (limit +10%), \
         daemon latency agrees, journal clean, gauges drained",
        (overhead - 1.0) * 100.0
    );
}

/// Well-formedness of a Prometheus text exposition: every sample must
/// belong to a family announced by a `# TYPE` line, every value must be
/// numeric, and histogram bucket counts must be cumulative (monotone in
/// `le`, with the `+Inf` bucket equal to `_count`).
fn prom(path: &str) {
    let content =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let mut types: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    // family → (per-family bucket trail, +Inf value, _count value)
    let mut buckets: std::collections::HashMap<String, (u64, Option<u64>, Option<u64>)> =
        std::collections::HashMap::new();
    let mut samples = 0usize;
    for (ln, line) in content.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(ty)) = (it.next(), it.next()) else {
                fail(format!("{path}:{ln}: malformed # TYPE line"));
            };
            if !matches!(
                ty,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                fail(format!("{path}:{ln}: unknown metric type {ty:?}"));
            }
            types.insert(name.to_string(), ty.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free comment
        }
        let (name_and_labels, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| fail(format!("{path}:{ln}: sample line without a value")));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| fail(format!("{path}:{ln}: non-numeric value {value:?}")));
        let name = name_and_labels.split(['{', ' ']).next().unwrap_or_default();
        // A histogram's samples are <f>_bucket/<f>_sum/<f>_count under the
        // family's single # TYPE line.
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| types.contains_key(*f))
            .unwrap_or(name);
        let Some(ty) = types.get(family) else {
            fail(format!(
                "{path}:{ln}: sample {name:?} has no preceding # TYPE line"
            ));
        };
        samples += 1;
        if ty == "histogram" {
            let entry = buckets.entry(family.to_string()).or_insert((0, None, None));
            if name.ends_with("_bucket") {
                let v = value as u64;
                if value < 0.0 || value.fract() != 0.0 {
                    fail(format!("{path}:{ln}: non-integral bucket count {value}"));
                }
                if v < entry.0 {
                    fail(format!(
                        "{path}:{ln}: bucket counts not cumulative ({v} after {})",
                        entry.0
                    ));
                }
                entry.0 = v;
                if name_and_labels.contains("le=\"+Inf\"") {
                    entry.1 = Some(v);
                }
            } else if name.ends_with("_count") {
                entry.2 = Some(value as u64);
            }
        }
    }
    if samples == 0 {
        fail(format!("{path}: no samples"));
    }
    for (family, (_, inf, count)) in &buckets {
        if inf.is_none() {
            fail(format!("{path}: histogram {family} has no +Inf bucket"));
        }
        if inf != count {
            fail(format!(
                "{path}: histogram {family}: +Inf bucket {inf:?} != _count {count:?}"
            ));
        }
    }
    println!(
        "ok: {samples} samples across {} typed families, {} histogram(s) cumulative",
        types.len(),
        buckets.len()
    );
}

/// Framing + payload validation of a `stint-journal-v1` session journal:
/// delegates the varint+FNV-1a framing to the serve-tier replayer and
/// requires every record to decode as a session event.
fn journal(path: &str) {
    let f = std::fs::File::open(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    match stint_serve::journal::validate_stream(std::io::BufReader::new(f)) {
        Ok(n) => println!("ok: {n} session events, framing and checksums clean"),
        Err(e) => fail(format!("{path}: {e}")),
    }
}

/// Structural validation of the race-report-card (`--report-json` from the
/// CLI, schema `stint-report-v1`): per run the kept count must equal the
/// length of the races array, the `truncated` marker must be consistent
/// with `total` vs `kept` (a capped report must say so, an uncapped one
/// must not), the racy-interval list must be sorted, disjoint, and sum to
/// exactly `racy_words`, and every race must be well-formed — a known
/// kind, a non-empty word range inside some racy interval, and a witness
/// that is either `null` or structurally complete (both evidence sides
/// with ordered spans, both order bits, both lineage chains). Semantic
/// witness validity is `stint-cli witness verify`'s job; this is the
/// schema gate the smoke scripts run without a trace at hand.
fn report(path: &str) {
    let doc = load(path);
    schema(&doc, path, "stint-report-v1");
    for key in ["source", "command"] {
        if doc.get(key).and_then(Value::as_str).is_none() {
            fail(format!("{path}: missing string field {key:?}"));
        }
    }
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(format!("{path}: no runs array")));
    if runs.is_empty() {
        fail(format!("{path}: empty runs array"));
    }
    let (mut total_races, mut witnessed) = (0usize, 0usize);
    for r in runs {
        let variant = r
            .get("variant")
            .and_then(Value::as_str)
            .unwrap_or_else(|| fail(format!("{path}: run without a variant name")));
        let ctx = format!("{path}: {variant}");
        let total = u64_field(r, "total", &ctx);
        let kept = u64_field(r, "kept", &ctx);
        let races = r
            .get("races")
            .and_then(Value::as_array)
            .unwrap_or_else(|| fail(format!("{ctx}: no races array")));
        if kept as usize != races.len() {
            fail(format!(
                "{ctx}: kept={kept} but races array has {} entries",
                races.len()
            ));
        }
        let truncated = r
            .get("truncated")
            .and_then(Value::as_bool)
            .unwrap_or_else(|| fail(format!("{ctx}: missing boolean field \"truncated\"")));
        if truncated != (kept < total) {
            fail(format!(
                "{ctx}: truncated={truncated} inconsistent with kept={kept} of total={total}"
            ));
        }
        let racy_words = u64_field(r, "racy_words", &ctx);
        let intervals = r
            .get("racy_intervals")
            .and_then(Value::as_array)
            .unwrap_or_else(|| fail(format!("{ctx}: no racy_intervals array")));
        let mut covered = 0u64;
        let mut prev_hi = 0u64;
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for (i, iv) in intervals.iter().enumerate() {
            let pair = iv
                .as_array()
                .filter(|p| p.len() == 2)
                .unwrap_or_else(|| fail(format!("{ctx}: racy_intervals[{i}] is not a pair")));
            let (Some(lo), Some(hi)) = (pair[0].as_u64(), pair[1].as_u64()) else {
                fail(format!("{ctx}: racy_intervals[{i}] is not numeric"));
            };
            if lo >= hi {
                fail(format!("{ctx}: empty interval [{lo}, {hi})"));
            }
            if i > 0 && lo < prev_hi {
                fail(format!(
                    "{ctx}: intervals not sorted/disjoint ([{lo}, {hi}) after hi={prev_hi})"
                ));
            }
            prev_hi = hi;
            covered += hi - lo;
            spans.push((lo, hi));
        }
        if covered != racy_words {
            fail(format!(
                "{ctx}: intervals cover {covered} words, racy_words says {racy_words}"
            ));
        }
        for (j, race) in races.iter().enumerate() {
            total_races += 1;
            let rctx = format!("{ctx}: race {j}");
            match race.get("kind").and_then(Value::as_str) {
                Some("write-write" | "read-write" | "write-read") => {}
                other => fail(format!("{rctx}: bad kind {other:?}")),
            }
            let lo = u64_field(race, "word_lo", &rctx);
            let hi = u64_field(race, "word_hi", &rctx);
            if lo >= hi {
                fail(format!("{rctx}: empty word range [{lo}, {hi})"));
            }
            if !spans.iter().any(|&(a, b)| a <= lo && hi <= b) {
                fail(format!(
                    "{rctx}: range [{lo}, {hi}) outside every racy interval"
                ));
            }
            u64_field(race, "prev", &rctx);
            u64_field(race, "cur", &rctx);
            match race.get("witness") {
                None => fail(format!("{rctx}: missing witness field (use null)")),
                Some(Value::Null) => {}
                Some(w) => {
                    witnessed += 1;
                    for side in ["prev", "cur"] {
                        let e = w
                            .get(side)
                            .unwrap_or_else(|| fail(format!("{rctx}: witness missing {side:?}")));
                        u64_field(e, "strand", &rctx);
                        let first = u64_field(e, "first", &rctx);
                        let last = u64_field(e, "last", &rctx);
                        if first > last {
                            fail(format!("{rctx}: {side} span [{first}, {last}] inverted"));
                        }
                        if e.get("event").is_none() {
                            fail(format!("{rctx}: {side} evidence missing event field"));
                        }
                    }
                    for key in ["prev_before_eng", "prev_before_heb"] {
                        if w.get(key).and_then(Value::as_bool).is_none() {
                            fail(format!("{rctx}: witness missing boolean {key:?}"));
                        }
                    }
                    for key in ["prev_lineage", "cur_lineage"] {
                        let chain = w
                            .get(key)
                            .and_then(Value::as_array)
                            .unwrap_or_else(|| fail(format!("{rctx}: witness missing {key:?}")));
                        if chain.is_empty() {
                            fail(format!("{rctx}: empty lineage chain {key:?}"));
                        }
                    }
                }
            }
        }
    }
    println!(
        "ok: {} run(s), {total_races} race record(s) ({witnessed} witnessed), \
         truncation markers consistent, intervals coalesced",
        runs.len()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("validate") if argv.len() >= 2 => {
            for path in &argv[1..] {
                load(path);
            }
            println!("ok: {} document(s) parse", argv.len() - 1);
        }
        Some("agree") if argv.len() == 3 => agree(&argv[1], &argv[2]),
        Some("memseries") if argv.len() == 2 || argv.len() == 3 => {
            memseries(&argv[1], argv.get(2).map(String::as_str))
        }
        Some("batch") if argv.len() == 2 => batch(&argv[1]),
        Some("parallel") if argv.len() == 2 => parallel(&argv[1]),
        Some("serve") if argv.len() == 2 => serve(&argv[1]),
        Some("prom") if argv.len() == 2 => prom(&argv[1]),
        Some("journal") if argv.len() == 2 => journal(&argv[1]),
        Some("report") if argv.len() == 2 => report(&argv[1]),
        _ => {
            eprintln!(
                "usage: jsoncheck validate FILE...\n       \
                 jsoncheck agree STATS METRICS\n       \
                 jsoncheck memseries SERIES [STATS]\n       \
                 jsoncheck batch BATCH\n       \
                 jsoncheck parallel PARALLEL\n       \
                 jsoncheck serve SERVE\n       \
                 jsoncheck prom FILE\n       \
                 jsoncheck journal FILE\n       \
                 jsoncheck report FILE"
            );
            std::process::exit(2);
        }
    }
}
