//! Cross-document checks on what the CLI's exporters write, run by the CLI's
//! exporter tests (`crates/cli/tests/documents.rs`). Each takes parsed
//! documents and returns its `ok:` line or the failure.

use crate::json::Value;

fn schema(doc: &Value, name: &str, want: &str) -> Result<(), String> {
    let got = doc.get("schema").and_then(Value::as_str).unwrap_or("");
    if got == want {
        Ok(())
    } else {
        Err(format!("{name}: schema is {got:?}, expected {want:?}"))
    }
}

fn runs(stats: &Value) -> Result<&[Value], String> {
    schema(stats, "stats", "stint-stats-v1")?;
    (stats.get("runs").and_then(Value::as_array)).ok_or_else(|| "stats: no runs array".into())
}

fn run_stats(run: &Value) -> Result<&Value, String> {
    run.get("stats")
        .ok_or_else(|| "stats: run without a stats object".into())
}

/// The stats dump and the metrics registry are fed from the same
/// `DetectorStats::fields()` source, so summing any detector counter across
/// the runs of a stats document (every variant of `--variant all`, or the
/// one run of `--variant batch`) must reproduce the metrics document's value
/// exactly.
pub fn agree(stats: &Value, metrics: &Value) -> Result<String, String> {
    let runs = runs(stats)?;
    schema(metrics, "metrics", "stint-obs-metrics-v1")?;
    if runs.is_empty() {
        return Err("stats: no run".into());
    }
    let counters = metrics
        .get("counters")
        .ok_or("metrics: no counters object")?;
    let keys = (run_stats(&runs[0])?.as_object()).ok_or("stats: run 0 stats is not an object")?;
    for (key, _) in keys {
        let mut want = 0u64;
        for r in runs {
            want += run_stats(r)?.uint(key, u64::MAX)?;
        }
        let got = counters.get(key).and_then(Value::as_u64);
        if got != Some(want) {
            return Err(format!("{key}: stats sums to {want}, metrics says {got:?}"));
        }
    }
    Ok(format!(
        "ok: {} detector counters agree across {} run(s)",
        keys.len(),
        runs.len()
    ))
}

/// A memory series must be non-empty with monotone timestamps; given the
/// stats dump of the same run, the gauge watermarks must bound the
/// detector's end-of-run byte stats and Lemma 4.1 must hold on the measured
/// watermarks.
pub fn memseries(series: &Value, stats: Option<&Value>) -> Result<String, String> {
    schema(series, "series", "stint-obs-memseries-v1")?;
    let samples = (series.get("samples").and_then(Value::as_array))
        .filter(|s| !s.is_empty())
        .ok_or("series: no samples")?;
    let mut prev = 0u64;
    for (i, s) in samples.iter().enumerate() {
        let t = s.uint("t_ns", u64::MAX)?;
        if t < prev {
            return Err(format!(
                "series: sample {i} t_ns={t} precedes {prev} (not monotone)"
            ));
        }
        prev = t;
        if s.get("gauges").and_then(Value::as_object).is_none() {
            return Err(format!("series: sample {i} has no gauges object"));
        }
    }
    let mut ok = format!(
        "ok: {} samples, timestamps monotone over {prev} ns",
        samples.len()
    );
    let Some(stats) = stats else { return Ok(ok) };
    let runs = runs(stats)?;
    let gauges = stats.get("gauges").ok_or("stats: no gauges object")?;
    let treap_hw = match gauges.get("ivtree.bytes") {
        Some(g) => Some(g.uint("hw", u64::MAX)?),
        None => None,
    };
    for r in runs {
        let s = run_stats(r)?;
        let inserts = s.uint("detector.treap_inserts", u64::MAX)?;
        if inserts == 0 {
            continue; // a hash-variant run; nothing tree-shaped to bound
        }
        let ah = s.uint("detector.ah_bytes", u64::MAX)?;
        let len_hw = s.uint("detector.treap_len_hw", u64::MAX)?;
        // Two stores (read tree + write tree), so the merged Lemma 4.1
        // bound is 2m + 2.
        if len_hw > 2 * inserts + 2 {
            return Err(format!(
                "Lemma 4.1 violated: treap_len_hw={len_hw} > 2*{inserts}+2"
            ));
        }
        if treap_hw.is_some_and(|hw| ah > hw) {
            return Err(format!(
                "detector.ah_bytes={ah} exceeds the ivtree.bytes watermark {treap_hw:?}"
            ));
        }
    }
    ok.push_str("\nok: gauge watermarks bound the detector byte stats (Lemma 4.1 holds)");
    Ok(ok)
}
