//! `jsoncheck` — dependency-free validator for the harness's JSON documents.
//!
//! The obs, mem, witness and serve smoke scripts validate the documents the
//! product writes (stats, metrics, memory series, Prometheus text, session
//! journals, report cards) with this binary, so the gates run on machines
//! with neither Python nor `jq`. It validates documents only: the repo's
//! measurements live in `benchmark/`.
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
        Some("prom") if argv.len() == 2 => prom(&argv[1]),
        Some("journal") if argv.len() == 2 => journal(&argv[1]),
        Some("report") if argv.len() == 2 => report(&argv[1]),
        _ => {
            eprintln!(
                "usage: jsoncheck validate FILE...\n       \
                 jsoncheck agree STATS METRICS\n       \
                 jsoncheck memseries SERIES [STATS]\n       \
                 jsoncheck prom FILE\n       \
                 jsoncheck journal FILE\n       \
                 jsoncheck report FILE"
            );
            std::process::exit(2);
        }
    }
}
