//! `check`: the expectations and the catalogue are what they claim to be.
//! `selftest`: the counts marked `exact` really repeat bit for bit.

use std::path::{Path, PathBuf};

use stint::{detect, run_with_detector_r, DetectorStats, SpOrder, Variant};
use stint_bench::json::Value;
use stint_spdag::simulate;
use stint_suite::{Scale, Workload};

use crate::catalog::{self, WORKLOADS};
use crate::expected::{self, Expected};
use crate::probes::{CoalesceDetector, CountingDetector};
use crate::proc::{jobj, run_child, Scratch};
use crate::programs::{scatter, Prog, ScatterCfg, ONLINE_W2, REPLAY_STREAM};
use crate::tiers::{history_bytes, OnlineTier, ReplayTier, PAR};

/// Per-layer metrics that are pure counts of deterministic work: identical
/// from run to run when ASLR is off, and marked `exact` only then.
pub const EXACT_LAYERS: [&str; 13] = [
    "cilk.events",
    "shadow.words",
    "shadow.intervals_out",
    "shadow.filter_hits",
    "ivtree.ops",
    "ivtree.visited_per_op",
    "ivtree.overlaps_per_op",
    "ivtree.len_hw",
    "sporder.reach_hits",
    "sporder.reach_misses",
    "sporder.reach_hit_rate",
    "batchdet.work_ratio",
    "batchdet.online.work_ratio",
];

const RACE_FREE: [&str; 6] = ["mmul", "straz", "sort", "fft", "heat", "chol"];
const BUGGY: [&str; 2] = ["buggy-mmul", "buggy-merge"];
const SCATTER: [(&str, ScatterCfg); 2] = [
    ("scatter_writes", ScatterCfg::WRITES),
    ("scatter_reads", ScatterCfg::READS),
];

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every expectation, derived from scratch, with how it was derived.
fn derive_expected() -> Vec<(Expected, &'static str)> {
    let mut out: Vec<(Expected, &'static str)> = RACE_FREE
        .iter()
        .map(|n| (Expected::race_free(n), "race-free by construction"))
        .collect();
    for name in BUGGY {
        let words = detect(&mut Workload::by_name(name, Scale::S), Variant::Vanilla)
            .report
            .racy_words();
        out.push((
            Expected::from_words(name, &words),
            "Variant::Vanilla at word granularity",
        ));
    }
    for (name, cfg) in SCATTER {
        out.push((
            Expected::from_words(name, &scatter(cfg, 1).planted),
            "planted sibling pairs (digest of --seed 1)",
        ));
    }
    let mut cut = Expected::race_free("truncated-v2");
    cut.status = "corrupt".into();
    out.push((cut, "two thirds of a clean v2 payload"));
    out
}

fn expected_json(rows: &[(Expected, &str)]) -> String {
    let rows: Vec<String> = rows.iter().map(|(e, how)| e.json(how)).collect();
    format!(
        "{{\n  \"schema\": \"stint-benchmark-expected-v1\",\n  \"inputs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// The construction rule of the scatter generator, checked against the
/// brute-force oracle at a size it can unfold: the races of a generated
/// program are exactly the planted ones, and STINT finds exactly those.
fn check_scatter_oracle(problems: &mut Vec<String>) {
    for (name, cfg) in SCATTER {
        for seed in [1, 2] {
            let s = scatter(cfg.reduced(), seed);
            let oracle = simulate(&s.func).racy_words();
            if oracle != s.planted {
                problems.push(format!(
                    "{name} seed {seed}: oracle finds {oracle:?}, planted {:?}",
                    s.planted
                ));
            }
            let found = detect(&mut Prog::Ast(&s.func), Variant::Stint)
                .report
                .racy_words();
            if found != s.planted {
                problems.push(format!(
                    "{name} seed {seed}: STINT finds {found:?}, planted {:?}",
                    s.planted
                ));
            }
        }
        let full = scatter(cfg, 1);
        if full.planted.len() != cfg.planted {
            problems.push(format!("{name}: planted {} pairs", full.planted.len()));
        }
    }
}

pub fn check(regen: bool) -> i32 {
    let mut problems = Vec::new();

    let derived = derive_expected();
    if regen {
        let path = manifest_dir().join("expected.json");
        std::fs::write(&path, expected_json(&derived)).expect("write expected.json");
        println!("wrote {} (rebuild to use it)", path.display());
    } else {
        let fresh: Vec<Expected> = derived.into_iter().map(|(e, _)| e).collect();
        if fresh != expected::all() {
            problems.push(format!(
                "expected.json is stale: derived {fresh:?}, committed {:?}",
                expected::all()
            ));
        }
    }

    check_scatter_oracle(&mut problems);

    let root = manifest_dir().join("../BENCHMARK.json");
    match std::fs::read_to_string(&root) {
        Ok(text) if text == catalog::benchmark_json() => {}
        Ok(_) => problems.push(
            "BENCHMARK.json differs from the catalogue (regenerate it with `catalog`)".into(),
        ),
        Err(e) => problems.push(format!("read {}: {e}", root.display())),
    }

    for p in &problems {
        println!("FAILED {p}");
    }
    if problems.is_empty() {
        println!("check: expected.json, the scatter oracle and BENCHMARK.json agree");
    }
    i32::from(!problems.is_empty())
}

/// One counting pass of a detection workload: every count the catalogue
/// marks `exact`, as one JSON object of whole numbers.
pub fn count_pass(workload: &str, seed: u64, dir: &Path) -> String {
    let mut counts: Vec<(&str, u64)> = Vec::new();
    let mut stats = DetectorStats::default();
    match workload {
        "replay_stream" => {
            let tier = ReplayTier::new(dir, &REPLAY_STREAM, PAR, PAR);
            let (mut events, mut work) = (0, 0);
            for i in 0..tier.files() {
                let o = tier.detect(i).0.expect("batch detect");
                stats.merge(&o.stats);
                events += o.events as u64;
                work += o.shards.iter().map(|s| s.events).sum::<u64>();
            }
            counts.push(("cilk.events", events));
            counts.push(("batchdet.work", work));
        }
        "online_w2" => {
            let tier = OnlineTier::new(&ONLINE_W2, PAR, PAR);
            let (mut events, mut work) = (0, 0);
            for k in tier.kernels {
                let o = stint_batchdet::online_detect(&mut (k.make)(), &tier.cfg)
                    .expect("online detect");
                stats.merge(&o.stats);
                events += o.events as u64;
                work += o.shards.iter().map(|s| s.events).sum::<u64>();
            }
            counts.push(("cilk.events", events));
            counts.push(("batchdet.online.work", work));
        }
        w => {
            let tier = crate::seq_tier(w, seed).expect("a sequential workload");
            let (mut events, mut words, mut intervals) = (0, 0, 0);
            for (_, mut p, _) in tier.source.instantiate() {
                events += run_with_detector_r::<_, _, SpOrder>(&mut p, CountingDetector::default())
                    .0
                    .det
                    .events;
            }
            for (_, mut p, _) in tier.source.instantiate() {
                let det = run_with_detector_r::<_, _, SpOrder>(&mut p, CoalesceDetector::default())
                    .0
                    .det;
                words += det.words;
                intervals += det.intervals;
            }
            for (_, mut p, _) in tier.source.instantiate() {
                stats.merge(&stint::detect_with(&mut p, tier.cfg).stats);
            }
            counts.push(("cilk.events", events));
            counts.push(("shadow.words", words));
            counts.push(("shadow.intervals_out", intervals));
        }
    }
    counts.push(("ivtree.ops", stats.treap.ops));
    counts.push(("ivtree.visited", stats.treap.visited));
    counts.push(("ivtree.overlaps", stats.treap.overlaps));
    counts.push(("ivtree.len_hw", stats.treap_len_hw));
    counts.push(("sporder.reach_hits", stats.reach_hits));
    counts.push(("sporder.reach_misses", stats.reach_misses));
    counts.push(("shadow.filter_hits", stats.hook_filter_hits));
    counts.push(("history_bytes", history_bytes(&stats)));
    let members: Vec<(&str, String)> = counts.iter().map(|(k, v)| (*k, v.to_string())).collect();
    jobj(&[
        ("aslr", crate::proc::jstr(crate::proc::aslr_label())),
        ("counts", jobj(&members)),
    ])
}

pub fn selftest() -> i32 {
    let mut bad = 0;
    for w in WORKLOADS.iter().filter(|w| w.name != "serve_closed") {
        let scratch = Scratch::new(w.name);
        let pass = || -> Result<Value, String> {
            if w.has_prep {
                run_child(&crate::child_args("prep", w.name, 1, 0.0, &scratch.0))?;
            }
            run_child(&crate::child_args("count", w.name, 1, 0.0, &scratch.0))
        };
        let (a, b) = match (pass(), pass()) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                println!("FAILED {}: {e}", w.name);
                bad += 1;
                continue;
            }
        };
        let aslr_off = a.get("aslr").and_then(Value::as_str) == Some("off");
        let (ca, cb) = (a.get("counts"), b.get("counts"));
        let n = ca.and_then(Value::as_object).map_or(0, <[_]>::len);
        if ca == cb && n > 0 {
            println!("{:<16} exact: two passes agree on all {n} counts", w.name);
        } else if aslr_off {
            println!(
                "FAILED {}: ASLR is off and two passes differ:\n  {ca:?}\n  {cb:?}",
                w.name
            );
            bad += 1;
        } else {
            println!(
                "{:<16} exact: false — ASLR could not be disabled here and counts differ",
                w.name
            );
        }
    }
    i32::from(bad > 0)
}
