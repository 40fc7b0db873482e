//! The documents `stint-cli` writes, checked on the real binary: every
//! exporter of one run parses and agrees with the others, `-` streams any of
//! them to stdout, and the report card survives the emit → verify → tamper →
//! reject loop.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use stint::{try_replay_with, Config, DetectorStats, Variant};
use stint_batchdet::{batch_detect_any, load_trace, new_pool, online_detect};
use stint_batchdet::{BatchConfig, OnlineConfig};
use stint_bench::doccheck;
use stint_bench::json::{parse, Value};
use stint_suite::{Scale, Workload};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stint-cli"))
        .env_remove("STINT_FAULTS")
        .env_remove("STINT_OBS")
        .args(args)
        .output()
        .expect("spawn stint-cli")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no exit code (killed by signal?)")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh directory for one test's files, removed when the guard drops.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("stint-cli-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("utf-8 path").to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn load(path: &str) -> Value {
    parse(&read(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `metrics` carries every [`DetectorStats::fields`] name at the value
/// `want` holds, except that a name in `own` only has to be there: a live
/// run's bit tables cover its heap in 256 KiB windows, and the heap sits
/// elsewhere in every process (ASLR).
fn publishes(metrics: &Value, want: &DetectorStats, own: &[&str]) {
    let counters = metrics.get("counters").expect("metrics: counters object");
    for (name, value) in want.fields() {
        let got = counters.get(name).and_then(Value::as_u64);
        let got = got.unwrap_or_else(|| panic!("metrics lack {name}"));
        let agrees = own.contains(&name) || got == value;
        assert!(agrees, "{name}: {got}, not {value}");
    }
}

/// One run with every exporter on: the three documents parse, the metrics
/// cover every instrumented layer and carry watermarked byte gauges, the
/// trace holds timed Chrome `trace_event` spans, and the stats dump agrees
/// with the metrics registry counter by counter. Every other tier publishes
/// the statistics its run returns the same way: a v1 replay, a streamed v2
/// batch replay and an online run each carry them in their metrics.
#[test]
fn every_exporter_of_one_run_parses_and_agrees() {
    let dir = Scratch::new("exporters");
    let (metrics, trace, stats) = (
        dir.path("metrics.json"),
        dir.path("trace.json"),
        dir.path("stats.json"),
    );
    let out = run(&[
        "detect",
        "sort",
        "--variant",
        "all",
        "--obs",
        "full",
        "--metrics-out",
        &metrics,
        "--trace-out",
        &trace,
        "--stats-json",
        &stats,
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));

    let metrics_doc = load(&metrics);
    let counters = metrics_doc.get("counters").and_then(Value::as_object);
    let counters = counters.expect("metrics: counters object");
    for layer in [
        "om.",
        "sporder.",
        "ivtree.",
        "shadow.",
        "cilkrt.",
        "detector.",
    ] {
        assert!(
            counters.iter().any(|(name, _)| name.starts_with(layer)),
            "metrics has no {layer}* counters"
        );
    }
    let treap_bytes = metrics_doc
        .get("gauges")
        .and_then(|g| g.get("ivtree.bytes"));
    let treap_hw = treap_bytes
        .and_then(|g| g.get("hw"))
        .and_then(Value::as_u64);
    assert!(treap_hw.is_some_and(|hw| hw > 0), "ivtree.bytes watermark");

    let trace_doc = load(&trace);
    let events = trace_doc.as_array().expect("trace: event array");
    let field = |e: &Value, key: &str| e.get(key).and_then(Value::as_str).map(str::to_string);
    let timed_span = |e: &&Value| field(e, "ph").as_deref() == Some("X") && e.get("dur").is_some();
    assert!(events.iter().any(|e| timed_span(&e)), "no timed ph=X span");
    let phase = |e: &Value| field(e, "name").as_deref() == Some("detect.execute");
    assert!(events.iter().any(phase), "no detect.execute span");
    // The spelling scripts and dashboards search for.
    assert!(read(&trace).contains("\"ph\": \"X\""));

    let line = doccheck::agree(&load(&stats), &metrics_doc).expect("stats ≡ metrics");
    assert!(line.starts_with("ok: "), "{line}");

    let (v1, v2) = (dir.path("sort.trace"), dir.path("sort.ctrace"));
    for args in [vec![&v1[..]], vec![&v2[..], "--compress"]] {
        let out = run(&[&["trace", "record", "sort"][..], &args].concat());
        assert_eq!(code(&out), 0, "record {args:?}: {}", stderr(&out));
    }
    let open = |path: &str| BufReader::new(File::open(path).expect("open a recording"));
    let published = |args: &[&str]| {
        let out = run(&[args, &["--metrics-out", &metrics]].concat());
        assert_eq!(code(&out), 0, "{args:?}: {}", stderr(&out));
        load(&metrics)
    };
    // The two replays are functions of their files: replayed here, the
    // numbers are the CLI's to the last one.
    let pt = load_trace(open(&v1)).expect("the v1 recording loads");
    let replay = try_replay_with(&pt, Config::new(Variant::Stint)).expect("replay");
    publishes(&published(&["trace", "replay", &v1]), &replay.stats, &[]);
    let (pool, cfg) = (new_pool(2, 0), BatchConfig::default());
    let batch = batch_detect_any(&pool, &mut open(&v2), &cfg).expect("batch replay");
    let batch_args = ["trace", "replay", &v2, "--variant", "batch"];
    publishes(&published(&batch_args), &batch.stats, &[]);
    let cfg = OnlineConfig {
        workers: 2,
        ..OnlineConfig::default()
    };
    let online = online_detect(&mut Workload::by_name("sort", Scale::Test), &cfg);
    let online = online.expect("online run").stats;
    let online_args = ["detect", "sort", "--variant", "batch", "--workers", "2"];
    let own = ["detector.coalesce_bytes"];
    publishes(&published(&online_args), &online, &own);
}

/// The gauge sampler's series: non-empty, monotone, tracking the interval
/// arena, its watermarks bounding the detector's byte stats (Lemma 4.1 on
/// the measured numbers) — and `-` streams it to stdout.
#[test]
fn memory_series_is_monotone_and_bounds_the_stats() {
    let dir = Scratch::new("memseries");
    let (series, stats) = (dir.path("mem.json"), dir.path("stats.json"));
    let out = run(&[
        "detect",
        "sort",
        "--variant",
        "stint",
        "--obs",
        "counters,sample=2",
        "--mem-series-out",
        &series,
        "--stats-json",
        &stats,
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let (series_doc, stats_doc) = (load(&series), load(&stats));
    let lines = doccheck::memseries(&series_doc, Some(&stats_doc)).expect("series checks");
    assert!(lines.contains("Lemma 4.1 holds"), "{lines}");
    assert!(read(&series).contains("\"ivtree.bytes\""), "never sampled");
    assert!(stats_doc.get("gauges").is_some(), "stats without gauges");

    let out = run(&[
        "detect",
        "sort",
        "--variant",
        "stint",
        "--mem-series-out",
        "-",
    ]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"stint-obs-memseries-v1\""), "{stdout}");
}

/// `--stats-json -` goes through the same open-or-stdout as every other
/// output flag (it used to create a file named `-`).
#[test]
fn stats_json_dash_streams_to_stdout() {
    let dir = Scratch::new("stats-dash");
    let out = Command::new(env!("CARGO_BIN_EXE_stint-cli"))
        .current_dir(&dir.0)
        .args(["detect", "sort", "--stats-json", "-"])
        .output()
        .expect("spawn stint-cli");
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = &stdout[stdout.find("{\n").expect("a JSON document on stdout")..];
    let doc = parse(doc).unwrap_or_else(|e| panic!("{e}:\n{stdout}"));
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("stint-stats-v1")
    );
    assert!(
        !Path::new(&dir.path("-")).exists(),
        "created a file named -"
    );
}

/// Emit → verify → tamper → reject, on a deliberately racy trace.
#[test]
fn witness_verify_accepts_the_genuine_card_and_fails_closed() {
    let dir = Scratch::new("witness");
    let (trace, card) = (dir.path("racy.trace"), dir.path("report.json"));
    assert_eq!(code(&run(&["trace", "record", "buggy-mmul", &trace])), 0);
    let replay = |extra: &[&str]| {
        let mut args = vec!["trace", "replay", &trace, "--variant", "batch"];
        args.extend_from_slice(extra);
        let out = run(&args);
        assert_eq!(code(&out), 1, "racy replay, stderr: {}", stderr(&out));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let rendered = replay(&["--witness", "--report-json", &card]);
    assert!(rendered.contains("order="), "no witness evidence rendered");
    for k in ["1", "7"] {
        let other = replay(&["--witness", "--shards", k]);
        assert_eq!(other, rendered, "witnessed render differs at K={k}");
    }
    let genuine = read(&card);
    check_card(&genuine);
    assert!(
        !genuine.contains("\"witness\": null"),
        "a race lost its witness"
    );

    let verify = |trace: &str, card_text: &str| {
        let path = dir.path("candidate.json");
        std::fs::write(&path, card_text).expect("write candidate card");
        run(&["witness", "verify", trace, &path])
    };
    let out = verify(&trace, &genuine);
    assert_eq!(code(&out), 0, "genuine card, stderr: {}", stderr(&out));

    let rejected = |what: &str, card_text: &str| {
        assert_ne!(card_text, genuine, "{what}: the tamper changed nothing");
        let out = verify(&trace, card_text);
        assert_eq!(code(&out), 4, "{what}, stderr: {}", stderr(&out));
        assert!(
            stderr(&out).contains("REJECTED"),
            "{what}: {}",
            stderr(&out)
        );
    };
    rejected(
        "order bit flipped",
        &genuine.replace("\"prev_before_heb\": false", "\"prev_before_heb\": true"),
    );
    // Strand ids rewritten to id + 2^32 — `"prev"`, `"strand"` and the
    // lineage heads: a reader that narrows with `as u32` sees the genuine
    // card (exit 0 before the one checked reader).
    let card_doc = parse(&genuine).expect("card parses");
    let run0 = &card_doc
        .get("runs")
        .and_then(Value::as_array)
        .expect("runs")[0];
    let race = &run0.get("races").and_then(Value::as_array).expect("races")[0];
    let prev = race.get("prev").and_then(Value::as_u64).expect("prev id");
    let wide = (prev + (1 << 32)).to_string();
    let mut shifted = genuine.clone();
    for key in ["\"prev\": ", "\"strand\": "] {
        shifted = shifted.replace(&format!("{key}{prev},"), &format!("{key}{wide},"));
    }
    rejected("strand ids + 2^32", &shifted);
    rejected(
        "fractional strand id",
        &genuine.replace(
            &format!("\"prev\": {prev},"),
            &format!("\"prev\": {prev}.5,"),
        ),
    );
    // Reads, but breaks the card's structural rules.
    let kept = run0.get("kept").and_then(Value::as_u64).expect("kept");
    rejected(
        "kept off by one",
        &genuine.replacen(
            &format!("\"kept\": {kept},"),
            &format!("\"kept\": {},", kept + 1),
            1,
        ),
    );

    let other = dir.path("other.trace");
    assert_eq!(code(&run(&["trace", "record", "sort", &other])), 0);
    let out = verify(&other, &genuine);
    assert!(matches!(code(&out), 4 | 2), "wrong trace: {:?}", out.status);

    // Without --witness the surface stays witness-free.
    let plain = dir.path("plain.json");
    let rendered = replay(&["--report-json", &plain]);
    assert!(!rendered.contains("order="), "witness rendered unasked");
    let plain_doc = load(&plain);
    let runs = plain_doc
        .get("runs")
        .and_then(Value::as_array)
        .expect("runs");
    let races = runs[0]
        .get("races")
        .and_then(Value::as_array)
        .expect("races");
    assert!(!races.is_empty());
    assert!(races.iter().all(|r| r.get("witness") == Some(&Value::Null)));
    assert!(read(&plain).contains("\"witness\": null"));
    check_card(&read(&plain));
}

/// A live `detect` card numbers its events over the hooks, a recorded file
/// holds strand units: the genuine card is rejected against the file, and
/// the reason names the mismatch.
#[test]
fn witness_verify_names_a_live_card_against_a_recorded_file() {
    let dir = Scratch::new("witness-live");
    let (trace, card) = (dir.path("racy.trace"), dir.path("live.json"));
    let out = run(&["detect", "buggy-mmul", "--witness", "--report-json", &card]);
    assert_eq!(code(&out), 1, "racy detect, stderr: {}", stderr(&out));
    assert_eq!(code(&run(&["trace", "record", "buggy-mmul", &trace])), 0);
    let out = run(&["witness", "verify", &trace, &card]);
    assert_eq!(code(&out), 4, "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("REJECTED") && err.contains("live 'detect'"),
        "{err}"
    );
}

/// The card reads with the checked reader and keeps its structural rules.
fn check_card(text: &str) {
    let card = stint::report_card::Card::read(text).expect("the card reads");
    card.check().expect("the card keeps its rules");
}
