//! `stint-cli` — command-line front end for the STINT reproduction.
//!
//! ```text
//! stint-cli detect <bench> [--variant V] [--scale S] [--shards K] [--workers W]
//! stint-cli bugs                                        run the buggy variants
//! stint-cli trace record <bench> <file> [--scale S]     record a portable trace
//! stint-cli trace info <file>                           inspect a trace file
//! stint-cli trace replay <file> [--variant V] [--shards K]
//! stint-cli grid [n]                                    wavefront demo (Smith-Waterman)
//! ```
//!
//! Variants: vanilla | compiler | comp+rts | stint | stint-btree, plus
//! `batch` (address-sharded detection on the work-stealing pool; `--shards
//! K`): `trace replay` reads the file, and `detect` runs the online engine
//! beside the live program (`--workers`, `--steal-seed`, `--chunk-events`).
//! Scales: test | s | m | paper.
//!
//! Exit codes: 0 = no races, 1 = races found, 2 = usage/IO error,
//! 3 = detector resource budget exhausted (report sound up to the failure
//! point), 4 = internal detector failure or corrupt trace file.
//! Every command keeps them: a sequential run, live or over a recorded
//! trace, goes through core's one variant dispatch ([`try_detect_with`],
//! [`try_replay_runs`]); `grid` catches its own detector's panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use stint::ctrace::{collect, for_each_run};
use stint::report_card::Card;
use stint::{
    open_any, try_detect_with, try_replay_runs, Config, DetectorError, Outcome, PortableTrace,
    RaceReport, RunSource, TraceOp, Variant, WitnessChecker,
};
use stint_suite::{Scale, Workload, BUGGY_NAMES, NAMES};

mod args;
mod output;

use args::{Parsed, RunOpts, VariantSel};
use output::{print_outcome, print_report, write_stats_json};
use stint_batchdet::{batch_detect_any, new_pool, online_detect, BatchConfig, OnlineConfig};

/// A failed run: either bad input (exit 2) or a structured detector failure
/// (exit 3 for resource exhaustion, 4 for a poisoned session).
enum Failure {
    Usage(String),
    Detector(DetectorError),
}

impl Failure {
    fn exit_code(&self) -> u8 {
        match self {
            Failure::Usage(_) => 2,
            Failure::Detector(e) => e.exit_code(),
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Usage(e) => f.write_str(e),
            Failure::Detector(e) => write!(f, "{e}"),
        }
    }
}

fn usage<E: std::fmt::Display>(e: E) -> Failure {
    Failure::Usage(e.to_string())
}

/// A run's result once its report is printed: whether it found races, or
/// the failure that degraded it — the report is then sound but incomplete,
/// and the exit is 3 (or 4), never a clean verdict.
fn verdict(races: bool, degraded: Option<DetectorError>) -> Result<bool, Failure> {
    degraded.map_or(Ok(races), |e| Err(Failure::Detector(e)))
}

fn main() -> ExitCode {
    // Exit quietly when stdout is a closed pipe (e.g. `stint-cli bugs | head`):
    // std's println! panics on EPIPE, which would print a scary backtrace.
    // Structured DetectorError panics are reported by the catch_unwind in
    // try_detect_with, so the hook stays silent for them too.
    std::panic::set_hook(Box::new(|info| {
        if info.payload().downcast_ref::<DetectorError>().is_some() {
            return;
        }
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        eprintln!("{info}");
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (parsed, opts) = match args::parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", args::usage());
            return ExitCode::from(2);
        }
    };
    // Fault plans: environment first, then the CLI flag (which wins). Both
    // must be installed before any detector or pool is constructed — fault
    // knobs are sampled at structure construction time.
    if let Err(e) = stint_faults::install_from_env() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    if let Some(plan) = &opts.fault_plan {
        stint_faults::install(plan.clone());
    }
    // Observability: environment first, then the CLI flag (which wins). The
    // exporter flags imply the default config when nothing else enabled it,
    // so `--metrics-out x.json` alone produces a populated file.
    if let Err(e) = stint::obs::enable_from_env() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    match &opts.obs {
        Some(Some(cfg)) => {
            let mut cfg = *cfg;
            // --mem-series-out needs the sampler; default its interval when
            // the spec didn't pick one.
            if opts.mem_series_out.is_some() && cfg.sample_ms.is_none() {
                cfg.sample_ms = Some(10);
            }
            stint::obs::enable(cfg);
        }
        Some(None) => stint::obs::disable(),
        None => {
            let wants_obs = opts.metrics_out.is_some()
                || opts.trace_out.is_some()
                || opts.mem_series_out.is_some();
            if wants_obs && !stint::obs::is_enabled() {
                let mut cfg = stint::obs::ObsConfig::default();
                if opts.mem_series_out.is_some() {
                    cfg.sample_ms = Some(10);
                }
                stint::obs::enable(cfg);
            }
        }
    }
    let result = run(parsed, &opts);
    // Exports happen after the run regardless of success: a degraded run's
    // counters are exactly what an operator wants to look at.
    let export = write_obs_outputs(&opts);
    match (result, export) {
        (Ok(races_found), Ok(())) => ExitCode::from(u8::from(races_found)),
        (Ok(_), Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        (Err(e), export) => {
            if let Err(x) = export {
                eprintln!("error: {x}");
            }
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Open `path` — `-` means stdout — and run `write` on it. Every output flag
/// (`--metrics-out`, `--trace-out`, `--mem-series-out`, `--stats-json`,
/// `--report-json`) writes its file through here.
fn out_writer(
    path: &str,
    write: impl FnOnce(Box<dyn std::io::Write>) -> std::io::Result<()>,
) -> Result<(), String> {
    let out: Box<dyn std::io::Write> = if path == "-" {
        Box::new(BufWriter::new(std::io::stdout()))
    } else {
        let f = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        Box::new(BufWriter::new(f))
    };
    write(out).map_err(|e| format!("write {path}: {e}"))
}

/// Write `--metrics-out` / `--trace-out` / `--mem-series-out` files, if
/// requested.
fn write_obs_outputs(opts: &RunOpts) -> Result<(), String> {
    if let Some(path) = &opts.metrics_out {
        out_writer(path, stint::obs::write_metrics_json)?;
    }
    if let Some(path) = &opts.trace_out {
        out_writer(path, stint::obs::write_trace_json)?;
    }
    if let Some(path) = &opts.mem_series_out {
        // Always close the series with one final snapshot so even a run
        // shorter than the sample interval yields a non-empty series.
        stint::obs::sampler::sample_now();
        out_writer(path, stint::obs::write_mem_series_json)?;
    }
    Ok(())
}

/// A printed run's end: its `--report-json` card (a `stint-report-v1`), if
/// asked for, then its [`verdict`].
fn finish(
    opts: &RunOpts,
    source: &str,
    command: &str,
    runs: &[(String, &RaceReport)],
    degraded: Option<DetectorError>,
) -> Result<bool, Failure> {
    if let Some(path) = &opts.report_json {
        out_writer(path, |w| Card::new(source, command, runs).write(w)).map_err(usage)?;
    }
    verdict(runs.iter().any(|(_, r)| !r.is_race_free()), degraded)
}

/// Returns whether races were found (drives the exit code, like a linter).
fn run(p: Parsed, opts: &RunOpts) -> Result<bool, Failure> {
    match p {
        Parsed::Help => {
            println!("{}", args::usage());
            Ok(false)
        }
        Parsed::Detect { bench, opts: o } => {
            let mut cfg = Config::new(Variant::Stint);
            if let Some(mb) = opts.max_shadow_mb {
                cfg.budget = cfg.budget.with_shadow_mb(mb);
            }
            cfg.budget.max_intervals = opts.max_intervals;
            cfg.witnesses = o.witness;
            let outcomes = match o.variant {
                VariantSel::Batch => {
                    let ocfg = OnlineConfig {
                        shards: o.shards,
                        workers: o.workers,
                        steal_seed: o.steal_seed,
                        chunk_events: o.chunk_events,
                        witnesses: o.witness,
                        budget: cfg.budget,
                    };
                    return detect_online(&bench, o.scale, &ocfg, opts);
                }
                VariantSel::One(v) => {
                    vec![detect_one(&bench, o.scale, Config { variant: v, ..cfg })?]
                }
                VariantSel::All => detect_all(&bench, o.scale, cfg)?,
            };
            for (i, o) in outcomes.iter().enumerate() {
                if i > 0 {
                    println!();
                }
                print_outcome(&bench, o);
            }
            // Each variant ran on its own allocation of the workload, so the
            // racy words' addresses differ from run to run; their count
            // does not.
            if outcomes.len() > 1 && outcomes.iter().all(|o| o.degraded.is_none()) {
                let first = outcomes[0].report.racy_word_count();
                if outcomes.iter().all(|o| o.report.racy_word_count() == first) {
                    println!(
                        "\nall {} variants agree: {first} racy word(s)",
                        outcomes.len()
                    );
                } else {
                    eprintln!("warning: variants disagree on the racy-word set");
                }
            }
            // The stats dump goes out before the degraded check so a capped
            // run's partial numbers are still inspectable.
            if let Some(path) = &opts.stats_json {
                let runs: Vec<_> = outcomes.iter().map(|o| (o.variant.name(), o)).collect();
                out_writer(path, |w| write_stats_json(w, &bench, &runs)).map_err(usage)?;
            }
            let runs: Vec<(String, &RaceReport)> = outcomes
                .iter()
                .map(|o| (o.variant.name().to_string(), &o.report))
                .collect();
            let degraded = outcomes.iter().find_map(|o| o.degraded.clone());
            finish(opts, &bench, "detect", &runs, degraded)
        }
        Parsed::Bugs => {
            println!("Running the seeded-bug variants under STINT:");
            let (mut any, mut degraded) = (false, None);
            for name in BUGGY_NAMES {
                let o = detect_one(name, Scale::Test, Config::new(Variant::Stint))?;
                println!("\n{}:", bug_label(name));
                print_report(&o.report, 3);
                any |= !o.report.is_race_free();
                degraded = degraded.or(o.degraded);
            }
            verdict(any, degraded)
        }
        Parsed::TraceRecord {
            bench,
            file,
            opts: o,
        } => {
            let (pt, n_hooks) =
                PortableTrace::record_counted(&mut Workload::by_name(&bench, o.scale));
            let f = File::create(&file).map_err(|e| usage(format!("create {file}: {e}")))?;
            let recorded = format!(
                "recorded {n_hooks} hooks as {} units over {} strands into {file}",
                pt.trace.len(),
                pt.reach.strand_count()
            );
            if o.compress {
                let st = pt
                    .save_compressed(BufWriter::new(f), o.chunk_events)
                    .map_err(usage)?;
                println!(
                    "{recorded} (compressed: {} runs, {} chunk(s), {} bytes)",
                    st.runs, st.chunks, st.bytes
                );
            } else {
                pt.save(BufWriter::new(f)).map_err(usage)?;
                println!("{recorded}");
            }
            Ok(false)
        }
        Parsed::TraceInfo { file } => {
            let mut src = open_runs(&file)?;
            let mut by_op = std::collections::BTreeMap::new();
            // Exact: a v1 file may claim ranges whose sum passes 2^64.
            let mut bytes = 0u128;
            for_each_run(&mut *src, |_, run| {
                *by_op.entry(format!("{:?}", run.op)).or_insert(0u64) += run.count;
                if !matches!(run.op, TraceOp::Free | TraceOp::StrandEnd) {
                    bytes += run.bytes as u128 * u128::from(run.count);
                }
            })
            .map_err(corrupt)?;
            // Counts what the file holds: units for a recorded trace, one
            // per hook for a hook-level one.
            let header = src.header();
            println!("trace {file}:");
            println!("  strands: {}", header.reach.strand_count());
            println!("  units:   {}", header.total_events);
            println!("  bytes:   {bytes}");
            for (op, n) in by_op {
                println!("  {op:<12} {n}");
            }
            Ok(false)
        }
        Parsed::TraceReplay { file, opts: o } => match o.variant {
            VariantSel::All => Err(usage("trace replay cannot run 'all'")),
            VariantSel::Batch => {
                // A v2 file streams chunk by chunk straight off the disk —
                // the full event stream is never resident; a v1 file is
                // parsed whole first.
                let cfg = BatchConfig {
                    shards: o.shards,
                    witnesses: o.witness,
                    ..BatchConfig::default()
                };
                let pool = new_pool(cfg.workers, cfg.steal_seed);
                let out = batch_detect_any(&pool, &mut open_trace(&file)?, &cfg)
                    .map_err(Failure::Detector)?;
                // The header and merged report are invariant in the shard
                // count, steal schedule, and trace encoding, so tests
                // byte-diff this output across K and across v1/v2 (the
                // streamed path adds one "  ingested ..." telemetry line).
                println!("replayed {} events under batch:", out.events);
                if let Some(ing) = &out.ingest {
                    println!(
                        "  ingested {} compressed bytes in {} chunk(s) \
                         ({} runs, {} wholesale)",
                        ing.bytes, ing.chunks, ing.runs, ing.wholesale_runs
                    );
                }
                let report = out.merged.to_report();
                print_report(&report, 10);
                let runs = [("BATCH".into(), &report)];
                finish(opts, &file, "replay", &runs, out.degraded)
            }
            VariantSel::One(variant) => {
                let mut src = open_runs(&file)?;
                let mut cfg = Config::new(variant);
                cfg.witnesses = o.witness;
                let out = try_replay_runs(&mut *src, cfg).map_err(Failure::Detector)?;
                let events = src.header().total_events;
                println!("replayed {events} events under {variant}:");
                print_report(&out.report, 10);
                let runs = [(variant.name().into(), &out.report)];
                finish(opts, &file, "replay", &runs, out.degraded)
            }
        },
        Parsed::WitnessVerify { trace, report } => witness_verify(&trace, &report),
        Parsed::Grid { n } => {
            use stint_grid::wavefront::SmithWaterman;
            let a: Vec<u8> = (0..n).map(|i| b"ACGT"[(i * 7 + 1) % 4]).collect();
            let b: Vec<u8> = (0..n).map(|i| b"ACGT"[(i * 5 + 2) % 4]).collect();
            let mut sw = SmithWaterman::new(&a, &b);
            // Outside `try_detect_with`: a panic exits 4 through this catch.
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sw.detect()));
            let (report, degraded) =
                run.map_err(|p| Failure::Detector(DetectorError::from_panic(p)))?;
            println!(
                "Smith-Waterman {0}x{0} wavefront: score {1}, races {2}",
                n + 1,
                sw.score(),
                report.total
            );
            verdict(!report.is_race_free(), degraded)
        }
    }
}

/// The heading `bugs` prints over a seeded-bug workload's report.
fn bug_label(name: &str) -> &'static str {
    match name {
        "buggy-heat" => "heat with missing timestep barrier",
        "buggy-merge" => "mergesort with overlapping output ranges",
        _ => "mmul with missing phase sync",
    }
}

/// `detect --variant batch`: run the benchmark once under the instrumented
/// executor on the relabel-free DePa substrate, fanning each chunk of the
/// instrumentation stream out over address shards on the work-stealing pool
/// *while the program runs*.
/// Everything printed here is a deterministic function of the program and
/// the chunk/shard knobs — no worker count, steal seed or wall-clock time
/// appears — so scripts byte-diff the whole stdout across pool
/// configurations, once the race addresses are rebased: the heap sits
/// elsewhere in every process (ASLR).
fn detect_online(
    bench: &str,
    scale: Scale,
    ocfg: &OnlineConfig,
    opts: &RunOpts,
) -> Result<bool, Failure> {
    let mut w = Workload::by_name(bench, scale);
    let out = online_detect(&mut w, ocfg).map_err(Failure::Detector)?;
    w.verify()
        .map_err(|e| usage(format!("output verification: {e}")))?;
    println!(
        "online {bench}: {} events over {} strands, {} shard(s), {} merge cycle(s)",
        out.events,
        out.strands,
        out.shards.len(),
        out.chunks
    );
    // The shards run sequential STINT's interval history; the stats dump
    // labels the run as the report card does.
    let run = Outcome {
        variant: Variant::Stint,
        report: out.merged.to_report(),
        stats: out.stats,
        wall: out.wall,
        strands: out.strands,
        counters: out.counters,
        degraded: out.degraded,
    };
    print_report(&run.report, 10);
    if let Some(path) = &opts.stats_json {
        let runs = [("ONLINE", &run)];
        out_writer(path, |w| write_stats_json(w, bench, &runs)).map_err(usage)?;
    }
    let runs = [("ONLINE".into(), &run.report)];
    finish(opts, bench, "detect", &runs, run.degraded)
}

/// Detect a fresh `bench` under `cfg`, then check the program's output.
fn detect_one(bench: &str, scale: Scale, cfg: Config) -> Result<Outcome, Failure> {
    let mut w = Workload::by_name(bench, scale);
    let o = try_detect_with(&mut w, cfg).map_err(Failure::Detector)?;
    w.verify()
        .map_err(|e| usage(format!("{} output verification: {e}", cfg.variant)))?;
    Ok(o)
}

/// Run every variant of `bench` concurrently, one task per variant, on a
/// small work-stealing pool. Detection is thread-safe: each task owns its
/// workload and detector, and the process-wide state the tasks share (fault
/// plan, observability counters, timing latch) is read-only or atomic.
fn detect_all(bench: &str, scale: Scale, base: Config) -> Result<Vec<Outcome>, Failure> {
    let pool = stint_cilkrt::ThreadPool::new(Variant::ALL.len());
    let mut slots: Vec<Option<Result<Outcome, Failure>>> =
        Variant::ALL.iter().map(|_| None).collect();
    // Chunks of one slot: one variant per leaf of the pool's fan-out.
    pool.for_each_chunk(&mut slots, 1, &|i, slot| {
        let v = Variant::ALL[i];
        slot[0] = Some(detect_one(bench, scale, Config { variant: v, ..base }));
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("for_each_chunk fills every slot"))
        .collect()
}

/// Open a trace file; one that cannot be opened is a usage error (exit 2).
fn open_trace(file: &str) -> Result<BufReader<File>, Failure> {
    let f = File::open(file).map_err(|e| usage(format!("open {file}: {e}")))?;
    Ok(BufReader::new(f))
}

/// A damaged trace: a corrupt-trace failure (exit 4), never a panic.
fn corrupt(e: std::io::Error) -> Failure {
    Failure::Detector(DetectorError::corrupt(e))
}

/// Open a trace, v1 or v2, as its runs, each checked before it is used.
fn open_runs(file: &str) -> Result<Box<dyn RunSource + Send>, Failure> {
    open_any(open_trace(file)?).map_err(corrupt)
}

/// `witness verify <trace> <report.json>`: re-run the independent
/// [`WitnessChecker`] on every race in a `stint-report-v1` report card
/// against the trace it was emitted from. Unreadable files are usage errors
/// (exit 2); a card that does not read — not a report card, a field missing
/// or holding a value it cannot — or breaks the card's structural rules, or
/// a witness that fails verification — tampered evidence, or a report
/// paired with the wrong trace, which for a live `detect` card against a
/// recorded file the reason names — is a corrupt-input failure (exit 4,
/// with a `REJECTED` line). A report that carries races but no witnesses is a
/// usage error: there is nothing to verify, re-emit with `--witness`.
fn witness_verify(trace_path: &str, report_path: &str) -> Result<bool, Failure> {
    let rejected = |what: String, reason: String| {
        eprintln!("witness REJECTED ({what}): {reason}");
        Failure::Detector(DetectorError::corrupt(format_args!(
            "witness verification failed: {reason}"
        )))
    };
    let pt = collect(&mut *open_runs(trace_path)?).map_err(corrupt)?;
    let text = std::fs::read_to_string(report_path)
        .map_err(|e| usage(format!("read {report_path}: {e}")))?;
    let card = Card::read(&text)
        .and_then(|card| card.check().map(|()| card))
        .map_err(|e| rejected(report_path.into(), e))?;
    let checker = WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
    // A live run's card numbers its hooks; a recorded file holds strand
    // units, so such a card cannot verify against it even when genuine.
    let stream = if card.command == "detect" {
        "; this card is from a live 'detect', whose event ids number the hook \
         stream, while a file 'trace record' writes holds strand units: verify \
         the card of a 'trace replay' of this file"
    } else {
        ""
    };
    let (mut total, mut checked) = (0u64, 0u64);
    for (ri, run) in card.runs.iter().enumerate() {
        for race in &run.races {
            total += 1;
            if race.witness.is_none() {
                continue;
            }
            checked += 1;
            checker.check(race).map_err(|reason| {
                let what = format!(
                    "run {ri}, {} race on words [{:#x},{:#x}), s{} vs s{}",
                    race.kind, race.word_lo, race.word_hi, race.prev.0, race.cur.0
                );
                rejected(what, reason + stream)
            })?;
        }
    }
    if checked == 0 && total > 0 {
        return Err(usage(format!(
            "{report_path}: {total} race(s), none witnessed — re-emit with --witness"
        )));
    }
    println!(
        "verified {checked} witness(es) across {total} race record(s) \
         ({} unwitnessed) against {trace_path}",
        total - checked
    );
    Ok(false)
}

/// Shared with `args.rs` for validation: the race-free suite plus the
/// seeded-bug variants (racy traces for witness tooling).
pub(crate) fn known_bench(name: &str) -> bool {
    NAMES.contains(&name) || BUGGY_NAMES.contains(&name)
}
