//! `jsoncheck` — dependency-free validator for the harness's JSON documents.
//!
//! The witness and serve smoke scripts validate the documents the product
//! writes (stats, metrics, memory series, Prometheus text, session
//! journals, report cards) with this binary, so the gates run on machines
//! with neither Python nor `jq`; the CLI's exporter tests run the same
//! `agree` / `memseries` bodies from the library. It validates documents
//! only: the repo's measurements live in `benchmark/`.
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
//! jsoncheck report FILE             FILE must read as a stint-report-v1
//!                                   race report card and pass its
//!                                   structural rules (the reader and the
//!                                   rules are `stint::report_card`'s —
//!                                   the ones `witness verify` reads with)
//! ```
//!
//! Exit codes: 0 = all checks passed, 1 = a check failed, 2 = usage error.

use stint_bench::doccheck;
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

/// The race report card (`--report-json` from the CLI): it must read —
/// every field present, typed and fitting — and pass the structural rules.
/// Semantic witness validity is `stint-cli witness verify`'s job; this is
/// the schema gate the smoke scripts run without a trace at hand.
fn report(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let card = stint::report_card::Card::read(&text)
        .and_then(|card| card.check().map(|()| card))
        .unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let races = || card.runs.iter().flat_map(|r| &r.races);
    println!(
        "ok: {} run(s), {} race record(s) ({} witnessed), \
         truncation markers consistent, intervals coalesced",
        card.runs.len(),
        races().count(),
        races().filter(|r| r.witness.is_some()).count()
    );
}

/// Print a check's `ok:` line(s), or fail with its reason.
fn settle(outcome: Result<String, String>) {
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => fail(e),
    }
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
        Some("agree") if argv.len() == 3 => {
            settle(doccheck::agree(&load(&argv[1]), &load(&argv[2])))
        }
        Some("memseries") if argv.len() == 2 || argv.len() == 3 => {
            let stats = argv.get(2).map(|path| load(path));
            settle(doccheck::memseries(&load(&argv[1]), stats.as_ref()))
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
