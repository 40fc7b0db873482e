//! `space` — the paper's space-overhead comparison, regenerated from the
//! byte-accurate gauge telemetry (Section 5's memory discussion plus
//! Lemma 4.1).
//!
//! For every benchmark × variant the binary runs one detection with
//! observability on and reports, from the end-of-run `DetectorStats` and the
//! gauge watermarks:
//!
//! * `ah_bytes` — heap bytes of the access history at run end (shadow pages
//!   for the hash variants, interval-store arenas for STINT);
//! * `coalesce_bytes` — the runtime-coalescing bit tables;
//! * `shadow_hw` — watermark of the word+bit shadow gauges;
//! * `peak_bytes` — sum of every `*.bytes` gauge watermark: the RSS proxy
//!   (structures need not peak simultaneously, so this is an upper bound on
//!   any single instant's tracked footprint);
//! * the Lemma 4.1 numbers: `treap_len_hw` must stay within
//!   `2*treap_inserts + k` for `k` interval stores.
//!
//! Per benchmark it then prints the paper's headline ratio — hash-variant
//! shadow bytes over STINT's treap bytes — and runs one dedicated STINT
//! detection whose read and write trees are checked *separately* against the
//! exact per-store bound `len_hw <= 2*inserts + 1` (the merged stats can
//! only support the weaker `+2` form).
//!
//! Flags: `--scale {test|s|m|paper}` (default `s`), `--bench NAME`,
//! `--out PATH` (default `BENCH_space.json`). Any Lemma violation is a hard
//! failure (exit 1) — `scripts/perfgate.sh` regenerates this file and stops
//! on that exit.

use stint::{IntervalStore, Outcome, Variant};
use stint_bench::*;
use stint_suite::{Scale, Workload, NAMES};

/// Unlike the timing figures, the space table also includes the B-tree
/// interval store (`stint-btree`): its `bytes` column is the paper's "what
/// if the treap were a flat ordered map" data point.
const VARIANTS: [Variant; 5] = [
    Variant::Vanilla,
    Variant::Compiler,
    Variant::CompRts,
    Variant::Stint,
    Variant::StintFlat,
];

struct Args {
    scale: Scale,
    out: String,
    bench: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut a = Args {
        scale: scale_from_args(),
        out: "BENCH_space.json".to_string(),
        bench: None,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                a.out = argv.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
                i += 1;
            }
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
    a
}

struct Row {
    bench: &'static str,
    variant: Variant,
    outcome: Outcome,
    shadow_hw: u64,
    peak_bytes: u64,
}

impl Row {
    /// Merged-store Lemma 4.1 bound: two interval stores, `2m + 2`.
    fn lemma_bound(&self) -> u64 {
        2 * self.outcome.stats.treap_inserts + 2
    }
    fn lemma_ok(&self) -> bool {
        self.outcome.stats.treap_len_hw <= self.lemma_bound()
    }
}

/// Exact per-store Lemma 4.1 check for one benchmark: run STINT directly and
/// read each tree's `OpStats` separately (`len_hw <= 2*inserts + 1`).
struct LemmaCase {
    bench: &'static str,
    tree: &'static str,
    inserts: u64,
    len_hw: u64,
}

impl LemmaCase {
    fn bound(&self) -> u64 {
        2 * self.inserts + 1
    }
    fn ok(&self) -> bool {
        self.len_hw <= self.bound()
    }
}

fn run_cell(name: &'static str, scale: Scale, v: Variant) -> Row {
    // Fresh watermarks per cell: everything from the previous cell has been
    // dropped (gauges reconciled back to zero), so a reset only clears the
    // high-water marks and the accumulated counters.
    stint::obs::reset();
    let mut w = Workload::by_name(name, scale);
    let o = stint::detect(&mut w, v);
    assert!(
        o.report.is_race_free(),
        "{name} reported races under {v} — benchmark or detector bug"
    );
    let mut shadow_hw = 0u64;
    let mut peak_bytes = 0u64;
    for (gname, _current, hw) in stint::obs::gauges_snapshot() {
        if gname.ends_with("bytes") {
            peak_bytes += hw;
        }
        if gname == "shadow.word_bytes" || gname == "shadow.bit_bytes" {
            shadow_hw += hw;
        }
    }
    Row {
        bench: name,
        variant: v,
        outcome: o,
        shadow_hw,
        peak_bytes,
    }
}

fn run_lemma_cases(bench: &'static str, scale: Scale) -> [LemmaCase; 2] {
    stint::obs::reset();
    let mut w = Workload::by_name(bench, scale);
    let det = stint::StintDetector::new(stint::RaceReport::default());
    let (ex, _) = stint::run_with_detector(&mut w, det);
    let rs = ex.det.history().read_tree().stats();
    let ws = ex.det.history().write_tree().stats();
    [
        LemmaCase {
            bench,
            tree: "read",
            inserts: rs.inserts,
            len_hw: rs.len_hw,
        },
        LemmaCase {
            bench,
            tree: "write",
            inserts: ws.inserts,
            len_hw: ws.len_hw,
        },
    ]
}

fn kib(b: u64) -> String {
    format!("{:.1}", b as f64 / 1024.0)
}

fn write_json(
    path: &str,
    scale: Scale,
    rows: &[Row],
    lemma: &[LemmaCase],
    ratios: &[(&'static str, f64)],
) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut j = json::Writer::new(&mut file);
    j.begin_object();
    j.key("schema").str("stint-space-v1");
    j.key("scale").str(scale_name(scale));
    j.key("rows").begin_array();
    for r in rows {
        let s = &r.outcome.stats;
        j.begin_object();
        j.key("bench").str(r.bench);
        j.key("variant").str(r.variant.name());
        j.key("ah_bytes").u64(s.ah_bytes);
        j.key("coalesce_bytes").u64(s.coalesce_bytes);
        j.key("shadow_hw_bytes").u64(r.shadow_hw);
        j.key("peak_gauge_bytes").u64(r.peak_bytes);
        j.key("treap_inserts").u64(s.treap_inserts);
        j.key("treap_len_hw").u64(s.treap_len_hw);
        j.key("lemma_bound").u64(r.lemma_bound());
        j.key("lemma_ok").bool(r.lemma_ok());
        j.end();
    }
    j.end();
    j.key("lemma_per_store").begin_array();
    for c in lemma {
        j.begin_object();
        j.key("bench").str(c.bench);
        j.key("tree").str(c.tree);
        j.key("inserts").u64(c.inserts);
        j.key("len_hw").u64(c.len_hw);
        j.key("bound").u64(c.bound());
        j.key("ok").bool(c.ok());
        j.end();
    }
    j.end();
    j.key("hash_shadow_over_treap").begin_object();
    for (bench, ratio) in ratios {
        // Two decimals, as the table prints it.
        j.key(bench).f64((ratio * 100.0).round() / 100.0);
    }
    j.end().end();
    j.finish()
}

fn main() {
    let args = parse_args();
    assert!(
        !stint_faults::is_active(),
        "the space study must run with no fault plan installed"
    );
    if let Some(b) = args.bench.as_deref() {
        if !NAMES.contains(&b) {
            eprintln!("--bench {b}: no such workload (have: {})", NAMES.join(", "));
            std::process::exit(2);
        }
    }
    // Counters + gauges only: spans and the sampler would add noise without
    // adding bytes, and the watermarks are what this study reads.
    stint::obs::enable(stint::obs::ObsConfig::COUNTERS);

    println!(
        "space — access-history bytes and gauge watermarks (scale={})",
        scale_name(args.scale)
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut lemma: Vec<LemmaCase> = Vec::new();
    for name in NAMES {
        if args.bench.as_deref().is_some_and(|b| b != name) {
            continue;
        }
        for v in VARIANTS {
            rows.push(run_cell(name, args.scale, v));
        }
        lemma.extend(run_lemma_cases(name, args.scale));
    }

    let mut t = Table::new(vec![
        "bench",
        "variant",
        "ah KiB",
        "coalesce KiB",
        "shadow hw KiB",
        "peak KiB",
        "len_hw",
        "2m+2",
        "lemma",
    ]);
    for r in &rows {
        let s = &r.outcome.stats;
        t.row(vec![
            r.bench.to_string(),
            r.variant.name().to_string(),
            kib(s.ah_bytes),
            kib(s.coalesce_bytes),
            kib(r.shadow_hw),
            kib(r.peak_bytes),
            s.treap_len_hw.to_string(),
            r.lemma_bound().to_string(),
            if r.lemma_ok() { "ok" } else { "VIOLATED" }.to_string(),
        ]);
    }
    t.print();

    // The headline comparison: word-shadow footprint of the strongest hash
    // variant over STINT's interval arenas, per benchmark.
    let mut ratios: Vec<(&'static str, f64)> = Vec::new();
    println!();
    for name in NAMES {
        let hash = rows
            .iter()
            .find(|r| r.bench == name && r.variant == Variant::Vanilla);
        let treap = rows
            .iter()
            .find(|r| r.bench == name && r.variant == Variant::Stint);
        if let (Some(h), Some(t)) = (hash, treap) {
            let ratio = h.outcome.stats.ah_bytes as f64 / t.outcome.stats.ah_bytes.max(1) as f64;
            println!(
                "{name}: hash shadow {} KiB / treap {} KiB = {ratio:.2}x",
                kib(h.outcome.stats.ah_bytes),
                kib(t.outcome.stats.ah_bytes),
            );
            ratios.push((h.bench, ratio));
        }
    }

    println!();
    for c in &lemma {
        println!(
            "lemma 4.1 {} {} tree: len_hw {} <= 2*{}+1 = {} {}",
            c.bench,
            c.tree,
            c.len_hw,
            c.inserts,
            c.bound(),
            if c.ok() { "ok" } else { "VIOLATED" }
        );
    }

    if let Err(e) = write_json(&args.out, args.scale, &rows, &lemma, &ratios) {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("\nwrote {}", args.out);

    let violations =
        rows.iter().filter(|r| !r.lemma_ok()).count() + lemma.iter().filter(|c| !c.ok()).count();
    if violations > 0 {
        eprintln!("FAIL: {violations} Lemma 4.1 violation(s)");
        std::process::exit(1);
    }
    println!("lemma 4.1 holds on every case");
}
