//! Hand-rolled argument parsing (no external dependencies). Every malformed
//! input is a `Result` error surfaced as exit code 2 — parsing never panics.

use stint::obs::ObsConfig;
use stint::{FaultPlan, ReachKind, Variant};
use stint_suite::Scale;

pub const USAGE: &str = "\
stint-cli — STINT race detector (SPAA 2021 reproduction)

USAGE:
  stint-cli detect <bench> [--variant V] [--scale S] [--shards K]
                   [--compress] [--chunk-events N] [--witness]
                   [--reach R] [--online-parallel] [--workers W]
                   [--steal-seed N]
  stint-cli bugs
  stint-cli trace record <bench> <file> [--scale S] [--compress]
                   [--chunk-events N]
  stint-cli trace info <file>
  stint-cli trace replay <file> [--variant V] [--shards K] [--compress]
                   [--chunk-events N] [--witness]
  stint-cli witness verify <trace-file> <report.json>
  stint-cli grid [n]
  stint-cli help

  <bench>    chol | fft | heat | mmul | sort | stra | straz, plus the
             seeded-bug variants buggy-heat | buggy-merge | buggy-mmul
             (deterministically racy — for recording racy traces and
             witness smoke tests)
  --variant  vanilla | compiler | comp+rts | stint (default) | stint-btree;
             detect also accepts 'all' (every variant, run in parallel on a
             work-stealing pool); detect and trace replay also accept
             'batch' (two-phase batch mode: record/load the trace, then
             fan detection out over contiguous address shards on the
             work-stealing pool; the merged report is identical to the
             sequential one for every shard count)
  --scale    test (default) | s | m | paper
  --shards   address shards for --variant batch (1..=4096, default 4)
  --compress trace record: save the compressed chunked STINT-TRACE v2
             format (delta+run-length coded, per-chunk checksums) instead
             of the v1 text format; trace replay --variant batch: force
             streaming chunked detection (a v1 input is transcoded first;
             v2 inputs always stream, flag or not); detect --variant
             batch: run the recorded trace through the compressed
             streaming path instead of in-memory partitioning
  --chunk-events N
             events per compressed chunk (1..=16777216, default 4096);
             both the record-side chunk size and the streaming replay's
             per-chunk working-set bound
  --witness  capture verifiable witnesses with each reported race (event
             spans of both accesses, SP-Order tag evidence, spawn-tree
             lineage); off by default and free when off; re-validate with
             'stint-cli witness verify'
  --reach    sporder (default) | depa — reachability substrate for
             sequential detect: SP-Order over the labelled OM list, or
             relabel-free DePa depth-vector timestamps (immutable once a
             strand is published; same races, same report)
  --online-parallel
             detect while the program runs: the instrumented execution
             maintains the DePa substrate and hands each chunk of the
             event stream to the work-stealing pool, which routes it over
             address shards and detects it against the live (lock-free)
             timestamps while the program runs on; the merged
             report is byte-identical for every worker count, steal seed
             and chunk size, and its racy intervals equal sequential
             STINT's; takes --shards/--chunk-events/--witness, not
             --variant batch/all or --compress
  --workers  pool workers for --online-parallel (0 = one per hardware
             thread, default; max 256)
  --steal-seed N
             perturb each pool worker's initial steal victim (determinism
             knob for --online-parallel; the report must not change)

  witness verify re-runs the independent WitnessChecker on every race in a
  --report-json report card against the recorded trace it came from: order
  bits are recomputed from the frozen rank permutations, lineage from the
  parent table, and each claimed span must hold a concretely conflicting
  access. A tampered witness exits 4.

GLOBAL OPTIONS (any command):
  --fault-plan SPEC   install a deterministic fault plan (key=value,flag,...;
                      e.g. 'seed=7,om-tags=16,shadow-pages=4'); also read
                      from the STINT_FAULTS environment variable
  --max-shadow-mb N   shadow-memory budget per structure, in MiB; on
                      exhaustion detection degrades soundly and exits 3
  --max-intervals N   interval-store budget (read + write trees); on
                      exhaustion detection degrades soundly and exits 3
  --obs SPEC          observability: off | counters | on | full |
                      spans=off|sampled|full | sample=MS (comma-composed);
                      also read from the STINT_OBS environment variable
                      (flag wins); sample=MS starts the periodic memory
                      sampler
  --metrics-out PATH  after the run, write all counters/gauges/histograms as
                      JSON (implies --obs on if observability is otherwise
                      off); PATH '-' writes to stdout
  --trace-out PATH    after the run, write recorded spans and gauge counter
                      tracks as Chrome trace_event JSON (load in
                      chrome://tracing or Perfetto; implies --obs on);
                      PATH '-' writes to stdout
  --mem-series-out PATH
                      after the run, write the sampled gauge time series as
                      JSON (implies --obs on with a 10 ms sample interval
                      unless --obs sample=MS chose one); PATH '-' writes to
                      stdout
  --stats-json PATH   (detect) write the run's DetectorStats as JSON,
                      including a process-wide gauge watermark snapshot
  --report-json PATH  (detect, trace replay) write the race-report-card as
                      JSON (schema stint-report-v1): totals, an explicit
                      truncated marker, coalesced racy intervals, and —
                      with --witness — the structured witness of every
                      kept race; PATH '-' writes to stdout

EXIT CODE: 0 = no races, 1 = races found, 2 = usage/IO error,
           3 = detector resource budget exhausted (report sound up to the
               failure point), 4 = internal detector failure or corrupt
               trace file (batch replay validates before detecting).";

/// Process/run-level options valid with every command: fault injection,
/// resource budgets and observability (budgets and `--stats-json` only
/// affect commands that run detection).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RunOpts {
    pub fault_plan: Option<FaultPlan>,
    pub max_shadow_mb: Option<u64>,
    pub max_intervals: Option<u64>,
    /// `--obs SPEC`: outer `None` = flag absent (environment decides);
    /// `Some(None)` = explicitly off; `Some(Some(cfg))` = enabled.
    pub obs: Option<Option<ObsConfig>>,
    pub metrics_out: Option<String>,
    pub trace_out: Option<String>,
    pub mem_series_out: Option<String>,
    pub stats_json: Option<String>,
    pub report_json: Option<String>,
}

/// `--variant` argument: one concrete variant, `all` of them, or the
/// sharded `batch` mode (which is a detection *strategy*, not a core
/// [`Variant`] — it always runs STINT detectors, one per address shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantSel {
    One(Variant),
    All,
    Batch,
}

#[derive(Debug, PartialEq)]
pub enum Parsed {
    Help,
    Detect {
        bench: String,
        variant: VariantSel,
        scale: Scale,
        shards: usize,
        compress: bool,
        chunk_events: usize,
        witness: bool,
        /// Reachability substrate for the sequential path (`--reach`).
        reach: ReachKind,
        /// `--online-parallel`: parallel online detection over live DePa.
        online: bool,
        /// Pool workers for `--online-parallel` (0 = hardware threads).
        workers: usize,
        /// Steal-victim seed for `--online-parallel`.
        steal_seed: u64,
    },
    Bugs,
    TraceRecord {
        bench: String,
        file: String,
        scale: Scale,
        compress: bool,
        chunk_events: usize,
    },
    TraceInfo {
        file: String,
    },
    TraceReplay {
        file: String,
        variant: VariantSel,
        shards: usize,
        compress: bool,
        chunk_events: usize,
        witness: bool,
    },
    /// `witness verify <trace> <report.json>`: re-validate every witness in
    /// a report card against the trace it was captured from.
    WitnessVerify {
        trace: String,
        report: String,
    },
    Grid {
        n: usize,
    },
}

fn parse_variant(s: &str) -> Result<VariantSel, String> {
    match s {
        "vanilla" => Ok(VariantSel::One(Variant::Vanilla)),
        "compiler" => Ok(VariantSel::One(Variant::Compiler)),
        "comp+rts" | "comprts" => Ok(VariantSel::One(Variant::CompRts)),
        "stint" => Ok(VariantSel::One(Variant::Stint)),
        "stint-btree" | "btree" => Ok(VariantSel::One(Variant::StintFlat)),
        "all" => Ok(VariantSel::All),
        "batch" => Ok(VariantSel::Batch),
        _ => Err(format!("unknown variant {s:?}")),
    }
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    Scale::parse(s).ok_or_else(|| format!("unknown scale {s:?}"))
}

/// The subcommand-level options `split_opts` pulls out of the argument
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SubOpts {
    variant: VariantSel,
    scale: Scale,
    shards: usize,
    compress: bool,
    chunk_events: usize,
    witness: bool,
    reach: ReachKind,
    online: bool,
    workers: usize,
    steal_seed: u64,
}

impl Default for SubOpts {
    fn default() -> Self {
        SubOpts {
            variant: VariantSel::One(Variant::Stint),
            scale: Scale::Test,
            shards: 4,
            compress: false,
            chunk_events: stint::ctrace::DEFAULT_CHUNK_EVENTS,
            witness: false,
            reach: ReachKind::SpOrder,
            online: false,
            workers: 0,
            steal_seed: 0,
        }
    }
}

/// Pull `--variant`/`--scale`/`--shards`/`--compress`/`--chunk-events`/
/// `--witness` options out of `rest`, leaving positionals.
fn split_opts(rest: &[String]) -> Result<(Vec<String>, SubOpts), String> {
    let mut pos = Vec::new();
    let mut o = SubOpts::default();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--variant" => {
                let v = rest.get(i + 1).ok_or("--variant needs a value")?;
                o.variant = parse_variant(v)?;
                i += 2;
            }
            "--scale" => {
                let v = rest.get(i + 1).ok_or("--scale needs a value")?;
                o.scale = parse_scale(v)?;
                i += 2;
            }
            "--shards" => {
                let v = rest.get(i + 1).ok_or("--shards needs a value")?;
                o.shards = v.parse().map_err(|_| format!("bad --shards {v:?}"))?;
                if o.shards == 0 || o.shards > 4096 {
                    return Err("--shards must be in 1..=4096".into());
                }
                i += 2;
            }
            "--compress" => {
                o.compress = true;
                i += 1;
            }
            "--witness" => {
                o.witness = true;
                i += 1;
            }
            "--chunk-events" => {
                let v = rest.get(i + 1).ok_or("--chunk-events needs a value")?;
                o.chunk_events = v.parse().map_err(|_| format!("bad --chunk-events {v:?}"))?;
                if o.chunk_events == 0 || o.chunk_events > 16_777_216 {
                    return Err("--chunk-events must be in 1..=16777216".into());
                }
                i += 2;
            }
            "--reach" => {
                let v = rest.get(i + 1).ok_or("--reach needs a value")?;
                o.reach = match v.as_str() {
                    "sporder" => ReachKind::SpOrder,
                    "depa" => ReachKind::DePa,
                    _ => return Err(format!("unknown reach substrate {v:?}")),
                };
                i += 2;
            }
            "--online-parallel" => {
                o.online = true;
                i += 1;
            }
            "--workers" => {
                let v = rest.get(i + 1).ok_or("--workers needs a value")?;
                o.workers = v.parse().map_err(|_| format!("bad --workers {v:?}"))?;
                if o.workers > 256 {
                    return Err("--workers must be in 0..=256".into());
                }
                i += 2;
            }
            "--steal-seed" => {
                let v = rest.get(i + 1).ok_or("--steal-seed needs a value")?;
                o.steal_seed = v.parse().map_err(|_| format!("bad --steal-seed {v:?}"))?;
                i += 2;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other:?}"));
            }
            _ => {
                pos.push(rest[i].clone());
                i += 1;
            }
        }
    }
    Ok((pos, o))
}

/// Strip the global options (valid anywhere on the command line) out of
/// `argv` before command dispatch.
fn extract_run_opts(argv: &[String]) -> Result<(Vec<String>, RunOpts), String> {
    let mut rest = Vec::new();
    let mut opts = RunOpts::default();
    let mut i = 0;
    while i < argv.len() {
        let take_value = |name: &str| {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match argv[i].as_str() {
            "--fault-plan" => {
                let spec = take_value("--fault-plan")?;
                opts.fault_plan = Some(
                    FaultPlan::parse(&spec).map_err(|e| format!("--fault-plan {spec:?}: {e}"))?,
                );
                i += 2;
            }
            "--max-shadow-mb" => {
                let v = take_value("--max-shadow-mb")?;
                opts.max_shadow_mb = Some(
                    v.parse()
                        .map_err(|_| format!("bad --max-shadow-mb {v:?}"))?,
                );
                i += 2;
            }
            "--max-intervals" => {
                let v = take_value("--max-intervals")?;
                opts.max_intervals = Some(
                    v.parse()
                        .map_err(|_| format!("bad --max-intervals {v:?}"))?,
                );
                i += 2;
            }
            "--obs" => {
                let spec = take_value("--obs")?;
                opts.obs =
                    Some(ObsConfig::parse(&spec).map_err(|e| format!("--obs {spec:?}: {e}"))?);
                i += 2;
            }
            "--metrics-out" => {
                opts.metrics_out = Some(take_value("--metrics-out")?);
                i += 2;
            }
            "--trace-out" => {
                opts.trace_out = Some(take_value("--trace-out")?);
                i += 2;
            }
            "--mem-series-out" => {
                opts.mem_series_out = Some(take_value("--mem-series-out")?);
                i += 2;
            }
            "--stats-json" => {
                opts.stats_json = Some(take_value("--stats-json")?);
                i += 2;
            }
            "--report-json" => {
                opts.report_json = Some(take_value("--report-json")?);
                i += 2;
            }
            _ => {
                rest.push(argv[i].clone());
                i += 1;
            }
        }
    }
    Ok((rest, opts))
}

/// The online/substrate knobs are detect-only; trace subcommands reject
/// them rather than silently ignoring them.
fn reject_online_opts(o: &SubOpts, ctx: &str) -> Result<(), String> {
    if o.online {
        return Err(format!("--online-parallel does not apply to {ctx}"));
    }
    if o.reach != ReachKind::SpOrder {
        return Err(format!("--reach does not apply to {ctx}"));
    }
    if o.workers != 0 || o.steal_seed != 0 {
        return Err(format!("--workers/--steal-seed do not apply to {ctx}"));
    }
    Ok(())
}

pub fn parse(argv: &[String]) -> Result<(Parsed, RunOpts), String> {
    let (argv, opts) = extract_run_opts(argv)?;
    Ok((parse_cmd(&argv)?, opts))
}

fn parse_cmd(argv: &[String]) -> Result<Parsed, String> {
    let cmd = argv.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "help" | "--help" | "-h" => Ok(Parsed::Help),
        "detect" => {
            let (pos, o) = split_opts(&argv[1..])?;
            let [bench] = pos.as_slice() else {
                return Err("detect takes exactly one benchmark name".into());
            };
            if !crate::known_bench(bench) {
                return Err(format!("unknown benchmark {bench:?}"));
            }
            if o.online {
                if o.variant != VariantSel::One(Variant::Stint) {
                    return Err(
                        "--online-parallel is its own detection strategy (STINT shard \
                         detectors over live DePa); drop --variant"
                            .into(),
                    );
                }
                if o.compress {
                    return Err("--compress does not apply to --online-parallel \
                                (nothing is recorded)"
                        .into());
                }
            } else {
                if o.workers != 0 {
                    return Err("--workers needs --online-parallel".into());
                }
                if o.steal_seed != 0 {
                    return Err("--steal-seed needs --online-parallel".into());
                }
            }
            if o.reach == ReachKind::DePa && o.variant == VariantSel::Batch {
                return Err(
                    "--reach does not apply to --variant batch (batch replays a frozen \
                     snapshot); use --online-parallel for live DePa detection"
                        .into(),
                );
            }
            if o.compress && !o.online && o.variant != VariantSel::Batch {
                return Err("detect --compress needs --variant batch".into());
            }
            Ok(Parsed::Detect {
                bench: bench.clone(),
                variant: o.variant,
                scale: o.scale,
                shards: o.shards,
                compress: o.compress,
                chunk_events: o.chunk_events,
                witness: o.witness,
                reach: o.reach,
                online: o.online,
                workers: o.workers,
                steal_seed: o.steal_seed,
            })
        }
        "bugs" => Ok(Parsed::Bugs),
        "witness" => {
            let sub = argv
                .get(1)
                .map(String::as_str)
                .ok_or("witness needs a subcommand (verify)")?;
            if sub != "verify" {
                return Err(format!("unknown witness subcommand {sub:?}"));
            }
            let [_, _, trace, report] = argv else {
                return Err("witness verify takes <trace-file> <report.json>".into());
            };
            Ok(Parsed::WitnessVerify {
                trace: trace.clone(),
                report: report.clone(),
            })
        }
        "trace" => {
            let sub = argv
                .get(1)
                .map(String::as_str)
                .ok_or("trace needs a subcommand")?;
            match sub {
                "record" => {
                    let (pos, o) = split_opts(&argv[2..])?;
                    reject_online_opts(&o, "trace record")?;
                    let [bench, file] = pos.as_slice() else {
                        return Err("trace record takes <bench> <file>".into());
                    };
                    if !crate::known_bench(bench) {
                        return Err(format!("unknown benchmark {bench:?}"));
                    }
                    if o.witness {
                        return Err(
                            "--witness applies at detection time (detect, trace replay), \
                             not trace record"
                                .into(),
                        );
                    }
                    Ok(Parsed::TraceRecord {
                        bench: bench.clone(),
                        file: file.clone(),
                        scale: o.scale,
                        compress: o.compress,
                        chunk_events: o.chunk_events,
                    })
                }
                "info" => {
                    let [_, _, file] = argv else {
                        return Err("trace info takes <file>".into());
                    };
                    Ok(Parsed::TraceInfo { file: file.clone() })
                }
                "replay" => {
                    let (pos, o) = split_opts(&argv[2..])?;
                    reject_online_opts(&o, "trace replay")?;
                    let [file] = pos.as_slice() else {
                        return Err("trace replay takes <file>".into());
                    };
                    if o.variant == VariantSel::All {
                        return Err(
                            "trace replay needs one concrete --variant (or 'batch'), not 'all'"
                                .into(),
                        );
                    }
                    if o.compress && o.variant != VariantSel::Batch {
                        return Err("trace replay --compress needs --variant batch".into());
                    }
                    Ok(Parsed::TraceReplay {
                        file: file.clone(),
                        variant: o.variant,
                        shards: o.shards,
                        compress: o.compress,
                        chunk_events: o.chunk_events,
                        witness: o.witness,
                    })
                }
                _ => Err(format!("unknown trace subcommand {sub:?}")),
            }
        }
        "grid" => {
            let n = match argv.get(1) {
                None => 40,
                Some(x) => x.parse().map_err(|_| format!("bad grid size {x:?}"))?,
            };
            if n == 0 || n > 4000 {
                return Err("grid size must be in 1..=4000".into());
            }
            Ok(Parsed::Grid { n })
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    const CHUNK: usize = stint::ctrace::DEFAULT_CHUNK_EVENTS;

    #[test]
    fn parses_detect_with_options() {
        let p = parse_cmd(&v(&[
            "detect",
            "sort",
            "--variant",
            "comp+rts",
            "--scale",
            "s",
        ]))
        .unwrap();
        assert_eq!(
            p,
            Parsed::Detect {
                bench: "sort".into(),
                variant: VariantSel::One(Variant::CompRts),
                scale: Scale::S,
                shards: 4,
                compress: false,
                chunk_events: CHUNK,
                witness: false,
                reach: ReachKind::SpOrder,
                online: false,
                workers: 0,
                steal_seed: 0,
            }
        );
    }

    #[test]
    fn parses_variant_all() {
        let p = parse_cmd(&v(&["detect", "fft", "--variant", "all"])).unwrap();
        assert_eq!(
            p,
            Parsed::Detect {
                bench: "fft".into(),
                variant: VariantSel::All,
                scale: Scale::Test,
                shards: 4,
                compress: false,
                chunk_events: CHUNK,
                witness: false,
                reach: ReachKind::SpOrder,
                online: false,
                workers: 0,
                steal_seed: 0,
            }
        );
        // `all` makes no sense for a single-detector replay.
        assert!(parse_cmd(&v(&["trace", "replay", "/tmp/t", "--variant", "all"])).is_err());
    }

    #[test]
    fn parses_variant_batch_and_shards() {
        let p = parse_cmd(&v(&[
            "detect",
            "mmul",
            "--variant",
            "batch",
            "--shards",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            p,
            Parsed::Detect {
                bench: "mmul".into(),
                variant: VariantSel::Batch,
                scale: Scale::Test,
                shards: 7,
                compress: false,
                chunk_events: CHUNK,
                witness: false,
                reach: ReachKind::SpOrder,
                online: false,
                workers: 0,
                steal_seed: 0,
            }
        );
        // Batch replays a saved trace too, unlike 'all'.
        let p = parse_cmd(&v(&[
            "trace",
            "replay",
            "/tmp/t",
            "--variant",
            "batch",
            "--shards",
            "16",
        ]))
        .unwrap();
        assert_eq!(
            p,
            Parsed::TraceReplay {
                file: "/tmp/t".into(),
                variant: VariantSel::Batch,
                shards: 16,
                compress: false,
                chunk_events: CHUNK,
                witness: false,
            }
        );
        assert!(parse_cmd(&v(&["detect", "mmul", "--shards", "0"])).is_err());
        assert!(parse_cmd(&v(&["detect", "mmul", "--shards", "5000"])).is_err());
        assert!(parse_cmd(&v(&["detect", "mmul", "--shards", "many"])).is_err());
        assert!(parse_cmd(&v(&["detect", "mmul", "--shards"])).is_err());
    }

    #[test]
    fn defaults() {
        let (p, _) = parse(&v(&["detect", "fft"])).unwrap();
        assert_eq!(
            p,
            Parsed::Detect {
                bench: "fft".into(),
                variant: VariantSel::One(Variant::Stint),
                scale: Scale::Test,
                shards: 4,
                compress: false,
                chunk_events: CHUNK,
                witness: false,
                reach: ReachKind::SpOrder,
                online: false,
                workers: 0,
                steal_seed: 0,
            }
        );
        assert_eq!(parse(&v(&[])).unwrap().0, Parsed::Help);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&v(&["detect"])).is_err());
        assert!(parse(&v(&["detect", "nope"])).is_err());
        assert!(parse(&v(&["detect", "sort", "--variant", "x"])).is_err());
        assert!(parse(&v(&["detect", "sort", "--scale"])).is_err());
        assert!(parse(&v(&["detect", "sort", "--wat"])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&["trace"])).is_err());
        assert!(parse(&v(&["trace", "record", "sort"])).is_err());
        assert!(parse(&v(&["grid", "0"])).is_err());
        assert!(parse(&v(&["grid", "abc"])).is_err());
    }

    #[test]
    fn parses_trace_commands() {
        assert_eq!(
            parse(&v(&["trace", "record", "mmul", "/tmp/t.trace"]))
                .unwrap()
                .0,
            Parsed::TraceRecord {
                bench: "mmul".into(),
                file: "/tmp/t.trace".into(),
                scale: Scale::Test,
                compress: false,
                chunk_events: CHUNK,
            }
        );
        assert_eq!(
            parse(&v(&["trace", "info", "/tmp/t.trace"])).unwrap().0,
            Parsed::TraceInfo {
                file: "/tmp/t.trace".into()
            }
        );
        assert_eq!(
            parse(&v(&[
                "trace",
                "replay",
                "/tmp/t.trace",
                "--variant",
                "vanilla"
            ]))
            .unwrap()
            .0,
            Parsed::TraceReplay {
                file: "/tmp/t.trace".into(),
                variant: VariantSel::One(Variant::Vanilla),
                shards: 4,
                compress: false,
                chunk_events: CHUNK,
                witness: false,
            }
        );
    }

    #[test]
    fn parses_global_run_opts_anywhere() {
        let (p, opts) = parse(&v(&[
            "detect",
            "mmul",
            "--max-intervals",
            "10",
            "--variant",
            "stint",
            "--fault-plan",
            "seed=7,om-tags=16",
            "--max-shadow-mb",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            p,
            Parsed::Detect {
                bench: "mmul".into(),
                variant: VariantSel::One(Variant::Stint),
                scale: Scale::Test,
                shards: 4,
                compress: false,
                chunk_events: CHUNK,
                witness: false,
                reach: ReachKind::SpOrder,
                online: false,
                workers: 0,
                steal_seed: 0,
            }
        );
        assert_eq!(opts.max_intervals, Some(10));
        assert_eq!(opts.max_shadow_mb, Some(2));
        let plan = opts.fault_plan.expect("plan parsed");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.om_tag_bits, Some(16));
    }

    #[test]
    fn rejects_bad_run_opts() {
        assert!(parse(&v(&["detect", "sort", "--fault-plan"])).is_err());
        assert!(parse(&v(&["detect", "sort", "--fault-plan", "wat=1"])).is_err());
        assert!(parse(&v(&["detect", "sort", "--max-shadow-mb", "lots"])).is_err());
        assert!(parse(&v(&["detect", "sort", "--max-intervals", "-3"])).is_err());
        assert!(parse(&v(&["detect", "sort", "--obs", "wat"])).is_err());
        assert!(parse(&v(&["detect", "sort", "--metrics-out"])).is_err());
    }

    #[test]
    fn parses_obs_and_export_opts() {
        let (_, opts) = parse(&v(&[
            "detect",
            "sort",
            "--obs",
            "full",
            "--metrics-out",
            "/tmp/m.json",
            "--trace-out",
            "/tmp/t.json",
            "--mem-series-out",
            "-",
            "--stats-json",
            "/tmp/s.json",
        ]))
        .unwrap();
        assert_eq!(
            opts.obs,
            Some(Some(ObsConfig {
                spans: stint::obs::SpanMode::Full,
                sample_ms: None,
            }))
        );
        assert_eq!(opts.metrics_out.as_deref(), Some("/tmp/m.json"));
        assert_eq!(opts.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(opts.mem_series_out.as_deref(), Some("-"));
        assert_eq!(opts.stats_json.as_deref(), Some("/tmp/s.json"));
        // Explicit off round-trips as Some(None).
        let (_, opts) = parse(&v(&["bugs", "--obs", "off"])).unwrap();
        assert_eq!(opts.obs, Some(None));
    }

    #[test]
    fn parses_compress_and_chunk_events() {
        let p = parse_cmd(&v(&[
            "trace",
            "record",
            "mmul",
            "/tmp/t",
            "--compress",
            "--chunk-events",
            "128",
        ]))
        .unwrap();
        assert_eq!(
            p,
            Parsed::TraceRecord {
                bench: "mmul".into(),
                file: "/tmp/t".into(),
                scale: Scale::Test,
                compress: true,
                chunk_events: 128,
            }
        );
        let p = parse_cmd(&v(&[
            "trace",
            "replay",
            "/tmp/t",
            "--variant",
            "batch",
            "--compress",
        ]))
        .unwrap();
        assert_eq!(
            p,
            Parsed::TraceReplay {
                file: "/tmp/t".into(),
                variant: VariantSel::Batch,
                shards: 4,
                compress: true,
                chunk_events: CHUNK,
                witness: false,
            }
        );
        let p = parse_cmd(&v(&["detect", "mmul", "--variant", "batch", "--compress"])).unwrap();
        assert_eq!(
            p,
            Parsed::Detect {
                bench: "mmul".into(),
                variant: VariantSel::Batch,
                scale: Scale::Test,
                shards: 4,
                compress: true,
                chunk_events: CHUNK,
                witness: false,
                reach: ReachKind::SpOrder,
                online: false,
                workers: 0,
                steal_seed: 0,
            }
        );
        // --compress is a batch-mode knob everywhere but trace record.
        assert!(parse_cmd(&v(&["detect", "mmul", "--compress"])).is_err());
        assert!(parse_cmd(&v(&[
            "trace",
            "replay",
            "/tmp/t",
            "--variant",
            "stint",
            "--compress"
        ]))
        .is_err());
        // Bounds and arity checks.
        assert!(parse_cmd(&v(&["trace", "record", "mmul", "/tmp/t", "--chunk-events"])).is_err());
        assert!(parse_cmd(&v(&[
            "trace",
            "record",
            "mmul",
            "/tmp/t",
            "--chunk-events",
            "0"
        ]))
        .is_err());
        assert!(parse_cmd(&v(&[
            "trace",
            "record",
            "mmul",
            "/tmp/t",
            "--chunk-events",
            "99999999"
        ]))
        .is_err());
    }

    #[test]
    fn parses_witness_flag_and_verify() {
        let p = parse_cmd(&v(&["detect", "buggy-mmul", "--witness"])).unwrap();
        assert_eq!(
            p,
            Parsed::Detect {
                bench: "buggy-mmul".into(),
                variant: VariantSel::One(Variant::Stint),
                scale: Scale::Test,
                shards: 4,
                compress: false,
                chunk_events: CHUNK,
                witness: true,
                reach: ReachKind::SpOrder,
                online: false,
                workers: 0,
                steal_seed: 0,
            }
        );
        let p = parse_cmd(&v(&[
            "trace",
            "replay",
            "/tmp/t",
            "--variant",
            "batch",
            "--witness",
        ]))
        .unwrap();
        assert_eq!(
            p,
            Parsed::TraceReplay {
                file: "/tmp/t".into(),
                variant: VariantSel::Batch,
                shards: 4,
                compress: false,
                chunk_events: CHUNK,
                witness: true,
            }
        );
        assert_eq!(
            parse_cmd(&v(&["witness", "verify", "/tmp/t", "/tmp/r.json"])).unwrap(),
            Parsed::WitnessVerify {
                trace: "/tmp/t".into(),
                report: "/tmp/r.json".into(),
            }
        );
        // Capture is a detection-time knob; recording doesn't take it.
        assert!(parse_cmd(&v(&["trace", "record", "mmul", "/tmp/t", "--witness"])).is_err());
        assert!(parse_cmd(&v(&["witness"])).is_err());
        assert!(parse_cmd(&v(&["witness", "frobnicate"])).is_err());
        assert!(parse_cmd(&v(&["witness", "verify", "/tmp/t"])).is_err());
        // --report-json is a global option with a value.
        let (_, opts) = parse(&v(&["detect", "sort", "--report-json", "/tmp/r.json"])).unwrap();
        assert_eq!(opts.report_json.as_deref(), Some("/tmp/r.json"));
        assert!(parse(&v(&["detect", "sort", "--report-json"])).is_err());
    }

    #[test]
    fn parses_reach_and_online_parallel() {
        let p = parse_cmd(&v(&["detect", "mmul", "--reach", "depa"])).unwrap();
        assert_eq!(
            p,
            Parsed::Detect {
                bench: "mmul".into(),
                variant: VariantSel::One(Variant::Stint),
                scale: Scale::Test,
                shards: 4,
                compress: false,
                chunk_events: CHUNK,
                witness: false,
                reach: ReachKind::DePa,
                online: false,
                workers: 0,
                steal_seed: 0,
            }
        );
        let p = parse_cmd(&v(&[
            "detect",
            "buggy-mmul",
            "--online-parallel",
            "--workers",
            "4",
            "--steal-seed",
            "7",
            "--shards",
            "3",
            "--chunk-events",
            "64",
            "--witness",
        ]))
        .unwrap();
        assert_eq!(
            p,
            Parsed::Detect {
                bench: "buggy-mmul".into(),
                variant: VariantSel::One(Variant::Stint),
                scale: Scale::Test,
                shards: 3,
                compress: false,
                chunk_events: 64,
                witness: true,
                reach: ReachKind::SpOrder,
                online: true,
                workers: 4,
                steal_seed: 7,
            }
        );
        // Substrate and pool knobs are detect-only and internally coherent.
        assert!(parse_cmd(&v(&["detect", "mmul", "--reach", "wat"])).is_err());
        assert!(parse_cmd(&v(&["detect", "mmul", "--reach"])).is_err());
        assert!(parse_cmd(&v(&["detect", "mmul", "--workers", "2"])).is_err());
        assert!(parse_cmd(&v(&["detect", "mmul", "--steal-seed", "9"])).is_err());
        assert!(parse_cmd(&v(&[
            "detect",
            "mmul",
            "--workers",
            "300",
            "--online-parallel"
        ]))
        .is_err());
        assert!(parse_cmd(&v(&[
            "detect",
            "mmul",
            "--online-parallel",
            "--variant",
            "batch"
        ]))
        .is_err());
        assert!(parse_cmd(&v(&[
            "detect",
            "mmul",
            "--online-parallel",
            "--variant",
            "all"
        ]))
        .is_err());
        assert!(parse_cmd(&v(&["detect", "mmul", "--online-parallel", "--compress"])).is_err());
        assert!(parse_cmd(&v(&[
            "detect",
            "mmul",
            "--variant",
            "batch",
            "--reach",
            "depa"
        ]))
        .is_err());
        assert!(parse_cmd(&v(&[
            "trace",
            "record",
            "mmul",
            "/tmp/t",
            "--online-parallel"
        ]))
        .is_err());
        assert!(parse_cmd(&v(&["trace", "replay", "/tmp/t", "--reach", "depa"])).is_err());
        assert!(parse_cmd(&v(&["trace", "replay", "/tmp/t", "--workers", "2"])).is_err());
    }

    #[test]
    fn parses_grid() {
        assert_eq!(parse(&v(&["grid"])).unwrap().0, Parsed::Grid { n: 40 });
        assert_eq!(
            parse(&v(&["grid", "100"])).unwrap().0,
            Parsed::Grid { n: 100 }
        );
    }
}
