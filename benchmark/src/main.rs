//! The repo benchmark. One command runs a workload, checks every verdict and
//! prints every metric by name with its unit; see `README.md` beside this
//! crate for the process model, the statistics and the catalogue.
//!
//! ```text
//! stint-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! stint-benchmark check [--regen]
//! stint-benchmark selftest
//! stint-benchmark agree A.json B.json
//! stint-benchmark catalog
//! ```

mod agree;
mod catalog;
mod check;
mod expected;
mod probes;
mod proc;
mod programs;
mod serve;
mod stats;
mod tiers;
mod traced;

use std::path::{Path, PathBuf};
use std::time::Instant;

use stint::ReachKind;
use stint_bench::json::Value;

use catalog::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use proc::{f64s, jarr, jnum, jobj, jstr, num, run_child, strs, Scratch};
use programs::{scatter, ScatterCfg, Source, LIVE_RANGES, LIVE_WORDS, ONLINE_W2, REPLAY_STREAM};
use stats::Summary;
use tiers::{measure, Measured, OnlineTier, ReplayTier, SeqTier, PAR, SETUP_REPS};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: stint-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]\n\
         \x20      stint-benchmark check [--regen] | selftest | agree A.json B.json | catalog"
    );
    std::process::exit(2);
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> RunArgs {
    let mut a = RunArgs {
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                if catalog::workload(&name).is_none() {
                    die(&format!("unknown workload {name:?}"));
                }
                a.workload = Some(name);
            }
            "--seed" => {
                a.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs a whole number"))
            }
            "--seconds" => {
                a.seconds = value("a number")
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| die("--seconds needs a positive number"))
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("a file"))),
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    a
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = args.split_first() else {
        die("no subcommand");
    };
    let code = match sub.as_str() {
        "run" => run(&parse_run(rest)),
        "child" => child(rest),
        "check" => check::check(rest.iter().any(|a| a == "--regen")),
        "selftest" => check::selftest(),
        "agree" => match rest {
            [a, b] => agree::agree(Path::new(a), Path::new(b)),
            _ => die("agree takes two result-set files"),
        },
        "catalog" => {
            print!("{}", catalog::benchmark_json());
            0
        }
        other => die(&format!("unknown subcommand {other:?}")),
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------- children

/// The set-up step that produces files, for the workloads that have one.
fn prep(workload: &str, dir: &Path) -> std::io::Result<()> {
    match workload {
        "replay_stream" => REPLAY_STREAM
            .iter()
            .try_for_each(|k| tiers::write_v2(dir, k)),
        "serve_closed" => serve::write_payloads(dir),
        _ => Ok(()),
    }
}

/// The sequential tier of `workload`, if it is one.
fn seq_tier(workload: &str, seed: u64) -> Option<SeqTier> {
    let source = match workload {
        "live_words" => Source::Kernels(&LIVE_WORDS),
        "live_ranges" => Source::Kernels(&LIVE_RANGES),
        "scatter_writes" => Source::Scatter(scatter(ScatterCfg::WRITES, seed)),
        "scatter_reads" => Source::Scatter(scatter(ScatterCfg::READS, seed)),
        _ => return None,
    };
    Some(SeqTier::new(source, ReachKind::SpOrder))
}

fn measure_workload(workload: &str, seed: u64, seconds: f64, dir: &Path) -> Measured {
    match workload {
        "replay_stream" => measure(|| ReplayTier::new(dir, &REPLAY_STREAM, PAR, PAR), seconds),
        "online_w2" => measure(|| OnlineTier::new(&ONLINE_W2, PAR, PAR), seconds),
        "serve_closed" => {
            let mut m = measure(|| serve::ServeTier::start(dir, seed), seconds);
            m.history_bytes = serve::block_history_bytes(&serve::Mix::load(dir, seed));
            m
        }
        w => measure(
            || seq_tier(w, seed).unwrap_or_else(|| die(&format!("unknown workload {w:?}"))),
            seconds,
        ),
    }
}

/// `child <step> <workload> <seed> <seconds> <dir> [obs-full]`: one step of a
/// run in its own process. Prints its report as one JSON object.
fn child(args: &[String]) -> i32 {
    let [step, workload, seed, seconds, dir, rest @ ..] = args else {
        die("child: bad arguments");
    };
    let seed: u64 = seed.parse().unwrap_or_else(|_| die("child: bad seed"));
    let seconds: f64 = seconds
        .parse()
        .unwrap_or_else(|_| die("child: bad seconds"));
    let dir = Path::new(dir);
    let aslr = proc::aslr_label();
    // Timing stays off and the obs and fault layers stay disabled in every
    // child; only a step that asks for them turns them on.
    if stint::timing::set_mode(stint::TimingMode::Off) != stint::TimingMode::Off {
        die("child: flush timing was latched on before the run");
    }
    let obs_full = rest.iter().any(|a| a == "obs-full");
    if obs_full {
        stint::obs::enable(stint::obs::ObsConfig::FULL);
    }
    match step.as_str() {
        "prep" => {
            let t0 = Instant::now();
            if let Err(e) = prep(workload, dir) {
                eprintln!("error: set-up of {workload}: {e}");
                return 1;
            }
            println!("{}", jobj(&[("prep_s", jnum(t0.elapsed().as_secs_f64()))]));
        }
        "measure" => {
            let m = measure_workload(workload, seed, seconds, dir);
            if !obs_full && stint::obs::registry_initialized() {
                eprintln!("error: an untraced run initialized the obs registry");
                return 1;
            }
            let failures: Vec<String> = m.failures.iter().map(|f| jstr(f)).collect();
            println!(
                "{}",
                jobj(&[
                    ("aslr", jstr(aslr)),
                    ("setup_s", jarr(&m.setup_s)),
                    ("walls", jarr(&m.walls)),
                    ("attempted", m.attempted.to_string()),
                    ("failed", m.failed.to_string()),
                    ("failures", format!("[{}]", failures.join(", "))),
                    ("history_bytes", m.history_bytes.to_string()),
                    ("peak_rss_mb", jnum(proc::peak_rss_mib())),
                ])
            );
        }
        "trace" => {
            let mut tr = traced::Tracer::new(workload);
            let t = match workload.as_str() {
                "replay_stream" => traced::trace_replay(&mut tr, dir, &REPLAY_STREAM, seconds),
                "online_w2" => traced::trace_online(&mut tr, &ONLINE_W2, seconds),
                "serve_closed" => traced::trace_serve(&mut tr, dir, seed, seconds),
                w => {
                    let mut tier = seq_tier(w, seed)
                        .unwrap_or_else(|| die(&format!("unknown workload {w:?}")));
                    traced::trace_sequential(&mut tr, &mut tier, seconds)
                }
            };
            let path = proc::out_dir().join(format!("trace-{workload}.json"));
            if let Err(e) = tr.write(&path) {
                eprintln!("error: write {}: {e}", path.display());
                return 1;
            }
            let layers: Vec<(&str, String)> =
                t.layers.iter().map(|(k, v)| (*k, jnum(*v))).collect();
            let failures: Vec<String> = t.failures.iter().take(8).map(|f| jstr(f)).collect();
            println!(
                "{}",
                jobj(&[
                    ("aslr", jstr(aslr)),
                    ("layers", jobj(&layers)),
                    ("traced_verdict_s", jnum(t.traced_verdict_s)),
                    ("attempted", t.attempted.to_string()),
                    ("failed", t.failures.len().to_string()),
                    ("failures", format!("[{}]", failures.join(", "))),
                ])
            );
        }
        "count" => println!("{}", check::count_pass(workload, seed, dir)),
        other => die(&format!("child: unknown step {other:?}")),
    }
    0
}

// ------------------------------------------------------------------ driver

/// The result of one workload's run: what the last line reports, plus the
/// distributions behind the timings.
pub struct Report {
    pub workload: String,
    pub aslr: String,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(name, unit, value, exact)`.
    pub metrics: Vec<(String, String, f64, bool)>,
    /// `(metric, distribution)` for every timing.
    pub dists: Vec<(String, Summary)>,
}

impl Report {
    /// An empty report for `w`; `child` is any child's output (for `aslr`).
    fn new(w: &Workload, child: &Value) -> Report {
        Report {
            workload: w.name.to_string(),
            aslr: child
                .get("aslr")
                .and_then(Value::as_str)
                .unwrap_or("on")
                .to_string(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            dists: Vec::new(),
        }
    }

    /// The contract's last line.
    fn last_line(&self) -> String {
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|(n, u, v, _)| (n.as_str(), jobj(&[("value", jnum(*v)), ("unit", jstr(u))])))
            .collect();
        jobj(&[
            ("correct", (self.failed == 0).to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", jobj(&metrics)),
        ])
    }

    fn print(&self) {
        println!("workload {}  (aslr {})", self.workload, self.aslr);
        for (name, unit, value, exact) in &self.metrics {
            let mark = if *exact { "  exact" } else { "" };
            println!("  {name:<32} {value:>16.6} {unit}{mark}");
        }
        for (name, d) in &self.dists {
            println!(
                "  {name:<32} n {} min {:.4} p25 {:.4} median {:.4} p75 {:.4} max {:.4}",
                d.n, d.min, d.p25, d.median, d.p75, d.max
            );
        }
        println!(
            "  operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for f in &self.failures {
            println!("  FAILED {f}");
        }
    }

    /// One workload's entry of a result-set file.
    fn set_json(&self) -> String {
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|(n, u, v, exact)| {
                (
                    n.as_str(),
                    jobj(&[
                        ("value", jnum(*v)),
                        ("unit", jstr(u)),
                        ("exact", exact.to_string()),
                    ]),
                )
            })
            .collect();
        let dists: Vec<(&str, String)> = self
            .dists
            .iter()
            .map(|(n, d)| (n.as_str(), d.json()))
            .collect();
        jobj(&[
            ("correct", (self.failed == 0).to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", jobj(&metrics)),
            ("distributions", jobj(&dists)),
        ])
    }
}

fn child_args(step: &str, w: &str, seed: u64, seconds: f64, dir: &Path) -> Vec<String> {
    vec![
        step.to_string(),
        w.to_string(),
        seed.to_string(),
        seconds.to_string(),
        dir.display().to_string(),
    ]
}

/// Run the file-producing set-up step `reps` times, each in its own process
/// (the last set of files stays); the seconds each took.
fn run_prep(w: &Workload, seed: u64, dir: &Path, reps: usize) -> Result<Vec<f64>, String> {
    if !w.has_prep {
        return Ok(vec![0.0]);
    }
    (0..reps)
        .map(|_| run_child(&child_args("prep", w.name, seed, 0.0, dir)).map(|v| num(&v, "prep_s")))
        .collect()
}

fn tally(report: &mut Report, v: &Value) {
    report.attempted += num(v, "attempted") as u64;
    report.failed += num(v, "failed") as u64;
    report.failures.extend(strs(v, "failures"));
}

/// The untraced run of one workload: every end-to-end metric.
fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let scratch = Scratch::new(w.name);
    let prep_s = run_prep(w, seed, &scratch.0, SETUP_REPS)?;
    let m = run_child(&child_args("measure", w.name, seed, seconds, &scratch.0))?;
    let mut report = Report::new(w, &m);
    tally(&mut report, &m);
    let exact = report.aslr == "off";
    let setup = Summary::of(&f64s(&m, "setup_s"));
    let prep = Summary::of(&prep_s);
    let verdict = Summary::of(&f64s(&m, "walls"));
    for e in &END_TO_END {
        let (value, exact) = match e.name {
            // Fastest repetition of each half of the set-up step.
            "setup_s" => (prep.min + setup.min, false),
            "verdict_s" => (verdict.best3, false),
            "history_mb" => (num(&m, "history_bytes") / 1048576.0, exact),
            "peak_rss_mb" => (num(&m, "peak_rss_mb"), false),
            other => unreachable!("no rule for end-to-end metric {other}"),
        };
        report
            .metrics
            .push((e.name.to_string(), e.unit.to_string(), value, exact));
    }
    report.dists.push(("verdict_s".into(), verdict));
    report.dists.push(("setup_s.in_process".into(), setup));
    if w.has_prep {
        report.dists.push(("setup_s.files".into(), prep));
    }
    Ok(report)
}

/// The traced run of one workload: every per-layer metric. A short untraced
/// child gives the reference `verdict_s` the tracing overhead is taken over.
fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let scratch = Scratch::new(w.name);
    run_prep(w, seed, &scratch.0, 1)?;
    let short = (seconds / 4.0).max(1.0);
    let reference = run_child(&child_args("measure", w.name, seed, short, &scratch.0))?;
    let t = run_child(&child_args("trace", w.name, seed, seconds, &scratch.0))?;
    let mut report = Report::new(w, &t);
    tally(&mut report, &reference);
    tally(&mut report, &t);
    let ref_walls = Summary::of(&f64s(&reference, "walls"));
    let mut layers: Vec<(String, f64)> = t
        .get("layers")
        .and_then(Value::as_object)
        .map(|o| {
            o.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    if w.name == "live_words" {
        // The cost a later in-program trace may spend: the same passes with
        // the obs layer fully on, in a process of their own.
        let mut args = child_args("measure", w.name, seed, short, &scratch.0);
        args.push("obs-full".into());
        let full = run_child(&args)?;
        tally(&mut report, &full);
        let full_walls = Summary::of(&f64s(&full, "walls"));
        layers.push((
            "obs.full_overhead_x".into(),
            full_walls.best3 / ref_walls.best3,
        ));
    }
    layers.push(("bench.noise_x".into(), ref_walls.noise_x()));
    layers.push((
        "bench.trace_overhead_x".into(),
        num(&t, "traced_verdict_s") / ref_walls.best3,
    ));
    layers.push(("bench.passes".into(), ref_walls.n as f64));
    layers.push((
        "bench.failed_share".into(),
        report.failed as f64 / report.attempted.max(1) as f64,
    ));
    let exact = report.aslr == "off";
    for (name, unit, _) in &PER_LAYER {
        let value = layers
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        report.metrics.push((
            name.to_string(),
            unit.to_string(),
            value,
            exact && check::EXACT_LAYERS.contains(name),
        ));
    }
    if let Some((stray, _)) = layers
        .iter()
        .find(|(n, _)| !PER_LAYER.iter().any(|(p, _, _)| p == n))
    {
        return Err(format!(
            "probe reported {stray}, which the catalogue does not list"
        ));
    }
    report.dists.push(("verdict_s.reference".into(), ref_walls));
    Ok(report)
}

/// `run`: one workload (the driver's mode: the last line is the contract's
/// JSON object) or, without `--workload`, every workload in turn.
fn run(a: &RunArgs) -> i32 {
    let workloads: Vec<&Workload> = match &a.workload {
        Some(name) => vec![catalog::workload(name).expect("validated by parse_run")],
        None => WORKLOADS.iter().collect(),
    };
    let mut reports = Vec::new();
    for w in workloads {
        let report = if a.trace {
            run_traced(w, a.seed, a.seconds)
        } else {
            run_untraced(w, a.seed, a.seconds)
        };
        match report {
            Ok(r) => {
                r.print();
                reports.push(r);
            }
            Err(e) => {
                eprintln!("error: {}: {e}", w.name);
                return 1;
            }
        }
    }
    if let Some(path) = &a.out {
        let entries: Vec<(&str, String)> = reports
            .iter()
            .map(|r| (r.workload.as_str(), r.set_json()))
            .collect();
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = jobj(&[
            ("schema", jstr("stint-benchmark-set-v1")),
            ("seed", a.seed.to_string()),
            ("seconds", jnum(a.seconds)),
            ("trace", a.trace.to_string()),
            ("hw_threads", hw.to_string()),
            (
                "aslr",
                jstr(reports.first().map_or("on", |r| r.aslr.as_str())),
            ),
            ("workloads", jobj(&entries)),
        ]);
        if let Err(e) = std::fs::write(path, doc + "\n") {
            eprintln!("error: write {}: {e}", path.display());
            return 1;
        }
        println!("wrote {}", path.display());
    }
    // One workload is the driver's mode: the verdict travels in the last
    // line (`correct`), and the exit code only says that a result was printed.
    if let (Some(_), [only]) = (&a.workload, &reports[..]) {
        println!("{}", only.last_line());
        return 0;
    }
    i32::from(reports.iter().any(|r| r.failed > 0))
}
