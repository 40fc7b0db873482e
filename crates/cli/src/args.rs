//! Argument parsing from one flag table (no external dependencies): every
//! option is a row of [`FLAGS`] — its name, its value parser (range
//! included), the commands and detection strategies it applies to, and its
//! help text. [`parse`] is one loop over the table and [`usage`] prints it,
//! so an option given where it means nothing is a usage error by
//! construction. Every malformed input is a `Result` error surfaced as exit
//! code 2 — parsing never panics.

use std::fmt::{Display, Write as _};
use std::ops::RangeInclusive;
use std::str::FromStr;
use stint::obs::ObsConfig;
use stint::{FaultPlan, Variant};
use stint_suite::Scale;

/// Process/run-level options: fault injection, resource budgets,
/// observability and the JSON exports.
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

/// The options of the commands that record or detect (`detect`, `trace
/// record`, `trace replay`); a command reads the ones [`FLAGS`] lets it take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdOpts {
    pub variant: VariantSel,
    pub scale: Scale,
    pub shards: usize,
    pub compress: bool,
    pub chunk_events: usize,
    pub witness: bool,
    /// Pool workers for `detect --variant batch` (0 = hardware threads).
    pub workers: usize,
    /// Steal-victim seed for `detect --variant batch`.
    pub steal_seed: u64,
}

impl Default for CmdOpts {
    fn default() -> Self {
        CmdOpts {
            variant: VariantSel::One(Variant::Stint),
            scale: Scale::Test,
            shards: 4,
            compress: false,
            chunk_events: stint::ctrace::DEFAULT_CHUNK_EVENTS,
            witness: false,
            workers: 0,
            steal_seed: 0,
        }
    }
}

#[derive(Debug, PartialEq)]
pub enum Parsed {
    Help,
    Detect {
        bench: String,
        opts: CmdOpts,
    },
    Bugs,
    TraceRecord {
        bench: String,
        file: String,
        opts: CmdOpts,
    },
    TraceInfo {
        file: String,
    },
    TraceReplay {
        file: String,
        opts: CmdOpts,
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

// Where an option can mean something: one bit per command, and per
// detection strategy for the two commands that detect.
const SEQ: u8 = 1;
const BATCH: u8 = 2;
const RECORD: u8 = 4;
const REPLAY: u8 = 8;
const REPLAY_BATCH: u8 = 16;
/// `help`, `bugs`, `trace info`, `witness verify`, `grid`.
const OTHER: u8 = 32;
const DETECT: u8 = SEQ | BATCH;
const ANY: u8 = DETECT | RECORD | REPLAY | REPLAY_BATCH | OTHER;

const CONTEXTS: [(u8, &str); 5] = [
    (SEQ, "detect"),
    (BATCH, "detect --variant batch"),
    (RECORD, "trace record"),
    (REPLAY, "trace replay"),
    (REPLAY_BATCH, "trace replay --variant batch"),
];

/// The names of the contexts in `mask`, comma-separated.
fn contexts(mask: u8) -> String {
    if mask == ANY {
        return "any command".into();
    }
    let names: Vec<&str> = CONTEXTS
        .iter()
        .filter(|(bit, _)| bit & mask != 0)
        .map(|&(_, name)| name)
        .collect();
    names.join(", ")
}

struct Flag {
    name: &'static str,
    /// The value's placeholder in the usage text; `None` for a switch.
    value: Option<&'static str>,
    /// Where the option applies: a set of the context bits above.
    applies: u8,
    /// Parse the value, range included, into its field.
    set: fn(&mut CmdOpts, &mut RunOpts, &str) -> Result<(), String>,
    help: &'static str,
}

/// `*slot = value?`, as an expression a table row can end in.
fn put<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

/// A number inside `range`.
fn num<T: FromStr + PartialOrd + Display>(v: &str, range: RangeInclusive<T>) -> Result<T, String> {
    match v.parse::<T>() {
        Ok(n) if range.contains(&n) => Ok(n),
        Ok(_) => Err(format!("must be in {}..={}", range.start(), range.end())),
        Err(_) => Err("not a non-negative integer".into()),
    }
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
        _ => Err("unknown variant".into()),
    }
}

const FLAGS: &[Flag] = &[
    Flag {
        name: "--variant",
        value: Some("V"),
        applies: SEQ | BATCH | REPLAY | REPLAY_BATCH,
        set: |c, _, v| put(&mut c.variant, parse_variant(v)),
        help: "vanilla | compiler | comp+rts | stint (default) | stint-btree; detect\n\
               also accepts 'all' (every variant, run in parallel on a work-stealing\n\
               pool); detect and trace replay also accept 'batch': detection fanned\n\
               out over contiguous address shards on the work-stealing pool, whose\n\
               merged report is the same for every shard count, worker count and\n\
               steal seed; trace replay reads the file, and detect runs beside the\n\
               program, which hands each batch of its strands' intervals to the pool\n\
               to be detected against the live (lock-free) DePa timestamps, and\n\
               finds sequential STINT's racy intervals",
    },
    Flag {
        name: "--scale",
        value: Some("S"),
        applies: DETECT | RECORD,
        set: |c, _, v| put(&mut c.scale, Scale::parse(v).ok_or("unknown scale".into())),
        help: "test (default) | s | m | paper",
    },
    Flag {
        name: "--shards",
        value: Some("K"),
        applies: BATCH | REPLAY_BATCH,
        set: |c, _, v| put(&mut c.shards, num(v, 1..=4096)),
        help: "address shards of the batch strategy (1..=4096, default 4)",
    },
    Flag {
        name: "--compress",
        value: None,
        applies: RECORD,
        set: |c, _, _| put(&mut c.compress, Ok(true)),
        help: "save the compressed chunked STINT-TRACE v2 format (delta+run-length\n\
               coded, per-chunk checksums) instead of the v1 text format; every\n\
               replay and `trace info` read a v2 file chunk by chunk, a v1 whole",
    },
    Flag {
        name: "--chunk-events",
        value: Some("N"),
        applies: BATCH | RECORD,
        set: |c, _, v| put(&mut c.chunk_events, num(v, 1..=16_777_216)),
        help: "events per compressed chunk (1..=16777216, default 4096), which\n\
               bounds a streamed replay's per-chunk working set; for detect\n\
               --variant batch, hand-off units per batch (a unit is one interval of\n\
               a strand, a free, or the strand end closing them, not a hook)",
    },
    Flag {
        name: "--witness",
        value: None,
        applies: DETECT | REPLAY | REPLAY_BATCH,
        set: |c, _, _| put(&mut c.witness, Ok(true)),
        help: "capture verifiable witnesses with each reported race (event spans of\n\
               both accesses, SP-Order tag evidence, spawn-tree lineage); off by\n\
               default and free when off; re-validate with 'stint-cli witness verify'\n\
               against the stream the card numbers: a live 'detect' numbers its\n\
               hooks, while a file 'trace record' writes holds strand units, so\n\
               only a card from 'trace replay' of that file verifies against it",
    },
    Flag {
        name: "--workers",
        value: Some("W"),
        applies: BATCH,
        set: |c, _, v| put(&mut c.workers, num(v, 0..=256)),
        help: "pool workers (0 = one per hardware thread, default; max 256)",
    },
    Flag {
        name: "--steal-seed",
        value: Some("N"),
        applies: BATCH,
        set: |c, _, v| put(&mut c.steal_seed, num(v, 0..=u64::MAX)),
        help: "perturb each pool worker's initial steal victim (determinism knob;\n\
               the report must not change)",
    },
    Flag {
        name: "--fault-plan",
        value: Some("SPEC"),
        applies: ANY,
        set: |_, r, v| {
            put(
                &mut r.fault_plan,
                FaultPlan::parse(v).map(Some).map_err(|e| e.to_string()),
            )
        },
        help: "install a deterministic fault plan (key=value,flag,...; e.g.\n\
               'seed=7,om-tags=16,shadow-pages=4'); also read from the STINT_FAULTS\n\
               environment variable",
    },
    Flag {
        name: "--max-shadow-mb",
        value: Some("N"),
        applies: SEQ | BATCH,
        set: |_, r, v| put(&mut r.max_shadow_mb, num(v, 0..=u64::MAX).map(Some)),
        help: "shadow-memory budget per structure, in MiB; on exhaustion detection\n\
               degrades soundly and exits 3",
    },
    Flag {
        name: "--max-intervals",
        value: Some("N"),
        applies: SEQ | BATCH,
        set: |_, r, v| put(&mut r.max_intervals, num(v, 0..=u64::MAX).map(Some)),
        help: "interval-store budget (read + write trees); on exhaustion detection\n\
               degrades soundly and exits 3",
    },
    Flag {
        name: "--obs",
        value: Some("SPEC"),
        applies: ANY,
        set: |_, r, v| {
            put(
                &mut r.obs,
                ObsConfig::parse(v).map(Some).map_err(|e| e.to_string()),
            )
        },
        help: "observability: off | counters | on | full | spans=off|sampled|full |\n\
               sample=MS (comma-composed); also read from the STINT_OBS environment\n\
               variable (flag wins); sample=MS starts the periodic memory sampler",
    },
    Flag {
        name: "--metrics-out",
        value: Some("PATH"),
        applies: ANY,
        set: |_, r, v| put(&mut r.metrics_out, Ok(Some(v.into()))),
        help: "after the run, write all counters/gauges/histograms as JSON (implies\n\
               --obs on if observability is otherwise off); PATH '-' writes to stdout",
    },
    Flag {
        name: "--trace-out",
        value: Some("PATH"),
        applies: ANY,
        set: |_, r, v| put(&mut r.trace_out, Ok(Some(v.into()))),
        help: "after the run, write recorded spans and gauge counter tracks as\n\
               Chrome trace_event JSON (load in chrome://tracing or Perfetto; implies\n\
               --obs on); PATH '-' writes to stdout",
    },
    Flag {
        name: "--mem-series-out",
        value: Some("PATH"),
        applies: ANY,
        set: |_, r, v| put(&mut r.mem_series_out, Ok(Some(v.into()))),
        help: "after the run, write the sampled gauge time series as JSON (implies\n\
               --obs on with a 10 ms sample interval unless --obs sample=MS chose\n\
               one); PATH '-' writes to stdout",
    },
    Flag {
        name: "--stats-json",
        value: Some("PATH"),
        applies: SEQ,
        set: |_, r, v| put(&mut r.stats_json, Ok(Some(v.into()))),
        help: "write the run's DetectorStats as JSON, including a process-wide\n\
               gauge watermark snapshot; PATH '-' writes to stdout",
    },
    Flag {
        name: "--report-json",
        value: Some("PATH"),
        applies: DETECT | REPLAY | REPLAY_BATCH,
        set: |_, r, v| put(&mut r.report_json, Ok(Some(v.into()))),
        help: "write the race-report-card as JSON (schema stint-report-v1): totals,\n\
               an explicit truncated marker, coalesced racy intervals, and — with\n\
               --witness — the structured witness of every kept race; PATH '-'\n\
               writes to stdout",
    },
];

/// The usage text; its options half is printed from [`FLAGS`].
pub fn usage() -> String {
    let mut s = String::from(
        "stint-cli — STINT race detector (SPAA 2021 reproduction)

USAGE:
  stint-cli detect <bench> [options]
  stint-cli bugs
  stint-cli trace record <bench> <file> [options]
  stint-cli trace info <file>
  stint-cli trace replay <file> [options]
  stint-cli witness verify <trace-file> <report.json>
  stint-cli grid [n]
  stint-cli help

  <bench>    chol | fft | heat | mmul | sort | stra | straz, plus the
             seeded-bug variants buggy-heat | buggy-merge | buggy-mmul
             (deterministically racy — for recording racy traces and
             witness tests)

  witness verify re-runs the independent WitnessChecker on every race in a
  --report-json report card against the recorded trace it came from: order
  bits are recomputed from the frozen rank permutations, lineage from the
  parent table, and each claimed span must hold a concretely conflicting
  access. A tampered witness exits 4.

OPTIONS (anywhere on the command line; one given where it does not apply is
a usage error):
",
    );
    for f in FLAGS {
        let _ = writeln!(
            s,
            "  {}",
            [f.name, f.value.unwrap_or("")].join(" ").trim_end()
        );
        for line in f.help.lines() {
            let _ = writeln!(s, "        {line}");
        }
        let _ = writeln!(s, "        applies to: {}", contexts(f.applies));
    }
    s += "
EXIT CODE: 0 = no races, 1 = races found, 2 = usage/IO error,
           3 = detector resource budget exhausted (report sound up to the
               failure point), 4 = internal detector failure or corrupt
               trace file (every command validates a trace before using it).";
    s
}

/// One loop over [`FLAGS`]: options may stand anywhere on the command line,
/// what is left are the command words, and every option seen must apply to
/// the command and strategy they select.
pub fn parse(argv: &[String]) -> Result<(Parsed, RunOpts), String> {
    let (mut cmd, mut run) = (CmdOpts::default(), RunOpts::default());
    let (mut seen, mut words) = (Vec::new(), Vec::new());
    let mut it = argv.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
            if arg.starts_with("--") && arg != "--help" {
                return Err(format!("unknown option {arg:?}"));
            }
            words.push(arg);
            continue;
        };
        let value = match flag.value {
            Some(_) => it.next().ok_or_else(|| format!("{arg} needs a value"))?,
            None => "",
        };
        (flag.set)(&mut cmd, &mut run, value).map_err(|e| format!("{arg} {value:?}: {e}"))?;
        seen.push(flag);
    }
    let (parsed, ctx) = command(&words, cmd)?;
    if let Some(f) = seen.iter().find(|f| f.applies & ctx == 0) {
        let here = match ctx {
            OTHER if words.is_empty() => "help".into(),
            OTHER => words.join(" "),
            _ => contexts(ctx),
        };
        return Err(format!(
            "{} does not apply to {here} (it applies to: {})",
            f.name,
            contexts(f.applies)
        ));
    }
    Ok((parsed, run))
}

/// The command the words name, and the context its options are checked in.
fn command(words: &[&str], opts: CmdOpts) -> Result<(Parsed, u8), String> {
    let bench = |name: &str| {
        if crate::known_bench(name) {
            Ok(name.to_string())
        } else {
            Err(format!("unknown benchmark {name:?}"))
        }
    };
    let batch = opts.variant == VariantSel::Batch;
    Ok(match words {
        [] | ["help" | "--help" | "-h", ..] => (Parsed::Help, OTHER),
        ["detect", name] => {
            let bench = bench(name)?;
            let ctx = if batch { BATCH } else { SEQ };
            (Parsed::Detect { bench, opts }, ctx)
        }
        ["detect", ..] => return Err("detect takes exactly one benchmark name".into()),
        ["bugs", ..] => (Parsed::Bugs, OTHER),
        ["witness", "verify", trace, report] => {
            let (trace, report) = (trace.to_string(), report.to_string());
            (Parsed::WitnessVerify { trace, report }, OTHER)
        }
        ["witness", "verify", ..] => {
            return Err("witness verify takes <trace-file> <report.json>".into())
        }
        ["witness", sub, ..] => return Err(format!("unknown witness subcommand {sub:?}")),
        ["witness"] => return Err("witness needs a subcommand (verify)".into()),
        ["trace", "record", name, file] => {
            let (bench, file) = (bench(name)?, file.to_string());
            (Parsed::TraceRecord { bench, file, opts }, RECORD)
        }
        ["trace", "record", ..] => return Err("trace record takes <bench> <file>".into()),
        ["trace", "info", file] => {
            let file = file.to_string();
            (Parsed::TraceInfo { file }, OTHER)
        }
        ["trace", "info", ..] => return Err("trace info takes <file>".into()),
        ["trace", "replay", file] => {
            if opts.variant == VariantSel::All {
                return Err(
                    "trace replay needs one concrete --variant (or 'batch'), not 'all'".into(),
                );
            }
            let file = file.to_string();
            let ctx = if batch { REPLAY_BATCH } else { REPLAY };
            (Parsed::TraceReplay { file, opts }, ctx)
        }
        ["trace", "replay", ..] => return Err("trace replay takes <file>".into()),
        ["trace", sub, ..] => return Err(format!("unknown trace subcommand {sub:?}")),
        ["trace"] => return Err("trace needs a subcommand".into()),
        ["grid"] => (Parsed::Grid { n: 40 }, OTHER),
        ["grid", n, ..] => {
            let n = num(n, 1..=4000).map_err(|e| format!("grid size {n:?}: {e}"))?;
            (Parsed::Grid { n }, OTHER)
        }
        [other, ..] => return Err(format!("unknown command {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse_cmd(argv: &[String]) -> Result<Parsed, String> {
        parse(argv).map(|(p, _)| p)
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
                opts: CmdOpts {
                    variant: VariantSel::One(Variant::CompRts),
                    scale: Scale::S,
                    ..CmdOpts::default()
                },
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
                opts: CmdOpts {
                    variant: VariantSel::All,
                    ..CmdOpts::default()
                },
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
                opts: CmdOpts {
                    variant: VariantSel::Batch,
                    shards: 7,
                    ..CmdOpts::default()
                },
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
                opts: CmdOpts {
                    variant: VariantSel::Batch,
                    shards: 16,
                    ..CmdOpts::default()
                },
            }
        );
        assert!(parse_cmd(&v(&["detect", "mmul", "--shards", "0"])).is_err());
        assert!(parse_cmd(&v(&["detect", "mmul", "--shards", "5000"])).is_err());
        assert!(parse_cmd(&v(&["detect", "mmul", "--shards", "many"])).is_err());
        assert!(parse_cmd(&v(&["detect", "mmul", "--shards"])).is_err());
    }

    #[test]
    fn defaults() {
        let (p, run) = parse(&v(&["detect", "fft"])).unwrap();
        assert_eq!(
            p,
            Parsed::Detect {
                bench: "fft".into(),
                opts: CmdOpts {
                    variant: VariantSel::One(Variant::Stint),
                    scale: Scale::Test,
                    shards: 4,
                    compress: false,
                    chunk_events: CHUNK,
                    witness: false,
                    workers: 0,
                    steal_seed: 0,
                },
            }
        );
        assert_eq!(run, RunOpts::default());
        assert_eq!(parse(&v(&[])).unwrap().0, Parsed::Help);
    }

    /// The table is the applicability rule: every flag, with a valid value,
    /// parses in each context it lists and is a usage error naming the flag
    /// and the command in every other one.
    #[test]
    fn every_flag_is_rejected_exactly_where_it_does_not_apply() {
        let places: [(u8, &str, &[&str]); 7] = [
            (SEQ, "detect", &["detect", "sort"]),
            (
                BATCH,
                "detect --variant batch",
                &["detect", "sort", "--variant", "batch"],
            ),
            (
                RECORD,
                "trace record",
                &["trace", "record", "sort", "/tmp/t"],
            ),
            (REPLAY, "trace replay", &["trace", "replay", "/tmp/t"]),
            (
                REPLAY_BATCH,
                "trace replay --variant batch",
                &["trace", "replay", "/tmp/t", "--variant", "batch"],
            ),
            (OTHER, "bugs", &["bugs"]),
            (OTHER, "grid 9", &["grid", "9"]),
        ];
        for f in FLAGS {
            let value = match f.name {
                "--variant" => "stint",
                "--scale" => "s",
                "--fault-plan" => "seed=7",
                "--obs" => "full",
                _ => "5",
            };
            for (ctx, name, base) in places {
                // The flag that picks the strategy would move the context;
                // walk it through the commands that have none.
                if f.name == "--variant" && ctx & (DETECT | REPLAY | REPLAY_BATCH) != 0 {
                    continue;
                }
                let mut argv = v(base);
                argv.push(f.name.into());
                argv.extend(f.value.map(|_| value.to_string()));
                match parse(&argv) {
                    Ok(_) => assert!(f.applies & ctx != 0, "{argv:?} accepted"),
                    Err(e) => {
                        assert!(f.applies & ctx == 0, "{argv:?}: {e}");
                        let want = format!("{} does not apply to {name} (", f.name);
                        assert!(e.starts_with(&want), "{argv:?}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn usage_is_printed_from_the_table() {
        let text = usage();
        for f in FLAGS {
            let entry = text.rsplit_once(&format!("\n  {}", f.name));
            let places = entry.and_then(|(_, e)| e.split("applies to: ").nth(1));
            let places = places.unwrap_or_else(|| panic!("{} missing", f.name));
            assert!(places.starts_with(&contexts(f.applies)), "{}", f.name);
        }
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
                opts: CmdOpts::default(),
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
                opts: CmdOpts {
                    variant: VariantSel::One(Variant::Vanilla),
                    ..CmdOpts::default()
                },
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
                opts: CmdOpts::default(),
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
                opts: CmdOpts {
                    compress: true,
                    chunk_events: 128,
                    ..CmdOpts::default()
                },
            }
        );
        // Recording knobs: batch detection lets its input pick the path
        // (a live one takes --chunk-events as its hand-off batch size).
        for argv in [
            "detect mmul --compress",
            "detect mmul --variant batch --compress",
            "trace replay /tmp/t --variant batch --compress",
            "trace replay /tmp/t --variant stint --compress",
            "trace replay /tmp/t --variant batch --chunk-events 64",
        ] {
            let args: Vec<&str> = argv.split(' ').collect();
            assert!(parse_cmd(&v(&args)).is_err(), "{argv}");
        }
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
                opts: CmdOpts {
                    witness: true,
                    ..CmdOpts::default()
                },
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
                opts: CmdOpts {
                    variant: VariantSel::Batch,
                    witness: true,
                    ..CmdOpts::default()
                },
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
    fn parses_online_parallel() {
        let p = parse_cmd(&v(&[
            "detect",
            "buggy-mmul",
            "--variant",
            "batch",
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
                opts: CmdOpts {
                    variant: VariantSel::Batch,
                    shards: 3,
                    chunk_events: 64,
                    witness: true,
                    workers: 4,
                    steal_seed: 7,
                    ..CmdOpts::default()
                },
            }
        );
        // Pool knobs are detect-only and internally coherent.
        assert!(parse_cmd(&v(&["detect", "mmul", "--workers", "2"])).is_err());
        assert!(parse_cmd(&v(&["detect", "mmul", "--steal-seed", "9"])).is_err());
        assert!(parse_cmd(&v(&[
            "detect",
            "mmul",
            "--workers",
            "300",
            "--variant",
            "batch"
        ]))
        .is_err());
        // The sharded live strategy has one spelling.
        let old = parse_cmd(&v(&[
            "detect",
            "mmul",
            "--variant",
            "batch",
            "--online-parallel",
        ]));
        assert_eq!(old, Err("unknown option \"--online-parallel\"".into()));
        assert!(parse_cmd(&v(&[
            "detect",
            "mmul",
            "--variant",
            "all",
            "--workers",
            "2"
        ]))
        .is_err());
        assert!(parse_cmd(&v(&["detect", "mmul", "--variant", "batch", "--compress"])).is_err());
        assert!(parse_cmd(&v(&["trace", "record", "mmul", "/tmp/t", "--workers", "2"])).is_err());
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
