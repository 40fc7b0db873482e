//! End-to-end exit-code contract of `stint-cli`:
//! 0 = no races, 1 = races found, 2 = usage error, 3 = resource budget
//! exhausted (sound partial report), 4 = internal detector failure.

use std::io::Write;
use std::process::{Command, Output};
use std::sync::{Arc, Mutex};
use stint::PortableTrace;
use stint_serve::protocol::{self, Request, Status};
use stint_serve::{server::run_frames, Engine, EngineConfig};
use stint_suite::{Scale, Workload};

fn cli(args: &[&str]) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_stint-cli"));
    // Isolate from any fault plan in the test runner's environment.
    c.env_remove("STINT_FAULTS");
    c.args(args);
    c
}

fn run(args: &[&str]) -> Output {
    cli(args).output().expect("spawn stint-cli")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no exit code (killed by signal?)")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn exit_0_race_free_run() {
    let out = run(&["detect", "sort"]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("race free"));
}

#[test]
fn exit_1_races_found() {
    let out = run(&["bugs"]);
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
}

#[test]
fn exit_2_usage_errors() {
    for args in [
        &["detect", "nope"][..],
        &["frobnicate"][..],
        &["detect", "sort", "--variant", "x"][..],
        &["detect", "sort", "--fault-plan", "wat=1"][..],
        &["detect", "sort", "--max-intervals", "lots"][..],
    ] {
        let out = run(args);
        assert_eq!(code(&out), 2, "args {args:?}, stderr: {}", stderr(&out));
        assert!(stderr(&out).contains("error:"), "args {args:?}");
    }
}

/// An option given where it means nothing is a usage error naming the option
/// and the command — never silently ignored. (The first five exited 0
/// before the flag table.)
#[test]
fn exit_2_option_that_does_not_apply_is_named() {
    for (args, option, command) in [
        (
            &["detect", "sort", "--shards", "7"][..],
            "--shards",
            "detect",
        ),
        (
            &["detect", "sort", "--chunk-events", "5"][..],
            "--chunk-events",
            "detect",
        ),
        (
            &["trace", "record", "sort", "/nonexistent/t", "--shards", "3"][..],
            "--shards",
            "trace record",
        ),
        (
            &[
                "trace",
                "record",
                "sort",
                "/nonexistent/t",
                "--variant",
                "vanilla",
            ][..],
            "--variant",
            "trace record",
        ),
        (
            &["trace", "replay", "/nonexistent/t", "--scale", "paper"][..],
            "--scale",
            "trace replay",
        ),
        (
            &["detect", "sort", "--variant", "batch", "--compress"][..],
            "--compress",
            "detect --variant batch",
        ),
        (
            &["detect", "sort", "--workers", "4"][..],
            "--workers",
            "detect",
        ),
    ] {
        let out = run(args);
        assert_eq!(code(&out), 2, "args {args:?}, stderr: {}", stderr(&out));
        let want = format!("error: {option} does not apply to {command} ");
        assert!(
            stderr(&out).contains(&want),
            "args {args:?}: {}",
            stderr(&out)
        );
    }
}

/// A malformed fault spec is a usage error that names the offending token
/// verbatim — both for the flag and for the environment variable — so the
/// user can find the typo in a long comma-separated plan.
#[test]
fn exit_2_bad_fault_token_is_named() {
    let out = run(&["detect", "sort", "--fault-plan", "frobnicate"]);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("\"frobnicate\""),
        "stderr must name the token: {}",
        stderr(&out)
    );

    let out = cli(&["detect", "sort"])
        .env("STINT_FAULTS", "seed=7,shadow-page-cap=banana")
        .output()
        .expect("spawn stint-cli");
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("\"shadow-page-cap=banana\""),
        "stderr must name the token: {}",
        stderr(&out)
    );
}

#[test]
fn exit_3_interval_budget_exhausted() {
    let online = "--online-parallel --workers 2";
    for args in [
        "detect mmul --max-intervals 1".to_string(),
        format!("detect buggy-mmul {online} --max-intervals 1"),
    ] {
        let args: Vec<&str> = args.split(' ').collect();
        let out = run(&args);
        assert_eq!(code(&out), 3, "args {args:?}, stderr: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("detector overloaded"), "stderr: {err}");
        assert!(err.contains("sound up to that point"), "stderr: {err}");
    }
}

/// A fault-free recording of `bench` at test scale, as a v1 file.
fn recording(bench: &str, tag: &str) -> std::path::PathBuf {
    let path = tmp_trace(tag);
    let pt = PortableTrace::record(&mut Workload::by_name(bench, Scale::Test));
    pt.save(std::fs::File::create(&path).expect("create trace"))
        .expect("save trace");
    path
}

/// Every sequential `trace replay` of `file`, then `bugs` and `grid`: the
/// commands that run a detector outside `detect`.
fn replays_bugs_and_grid(file: &str) -> Vec<Vec<&str>> {
    let variants = "vanilla compiler comp+rts stint stint-btree".split(' ');
    let mut commands: Vec<Vec<&str>> = variants
        .map(|v| vec!["trace", "replay", file, "--variant", v])
        .collect();
    commands.extend([vec!["bugs"], vec!["grid"]]);
    commands
}

/// A shadow budget of nothing degrades every command that detects: exit 3
/// after the partial report, never a clean verdict.
#[test]
fn exit_3_shadow_budget_exhausted() {
    let out = run(&[
        "detect",
        "sort",
        "--variant",
        "vanilla",
        "--max-shadow-mb",
        "0",
    ]);
    assert_eq!(code(&out), 3, "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("shadow memory"),
        "stderr: {}",
        stderr(&out)
    );
    let racy = recording("buggy-mmul", "shadow-racy");
    for args in replays_bugs_and_grid(racy.to_str().expect("utf-8")) {
        let args = [&args[..], &["--fault-plan", "shadow-pages=0"]].concat();
        let out = run(&args);
        assert_eq!(code(&out), 3, "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("shadow memory"), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("races"), "{args:?}: no partial report");
    }
    let _ = std::fs::remove_file(racy);
}

#[test]
fn exit_4_injected_internal_failure() {
    let racy = recording("buggy-mmul", "panic-racy");
    let mut commands = vec![
        vec!["detect", "sort"],
        vec!["detect", "sort", "--online-parallel", "--workers", "2"],
    ];
    commands.extend(replays_bugs_and_grid(racy.to_str().expect("utf-8")));
    for args in commands {
        let args = [&args[..], &["--fault-plan", "panic-at-flush=1"]].concat();
        let out = run(&args);
        assert_eq!(code(&out), 4, "args {args:?}, stderr: {}", stderr(&out));
        assert!(
            stderr(&out).contains("poisoned"),
            "stderr: {}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_file(racy);
}

#[test]
fn fault_plan_env_var_is_honored() {
    let out = cli(&["detect", "sort"])
        .env("STINT_FAULTS", "panic-at-flush=1")
        .output()
        .expect("spawn stint-cli");
    assert_eq!(code(&out), 4, "stderr: {}", stderr(&out));

    let out = cli(&["detect", "sort"])
        .env("STINT_FAULTS", "not-a-knob")
        .output()
        .expect("spawn stint-cli");
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
}

/// Unique temp path for one test's scratch trace file.
fn tmp_trace(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("stint-cli-{tag}-{}.trace", std::process::id()))
}

/// Batch replay of a v1 file renders the same bytes for every shard count,
/// and the sequential STINT replay's report under its own header; a v2
/// recording of the same run streams to that report plus one `ingested`
/// line, again for every shard count. Either file holds the run's units,
/// far fewer than its hooks, and `trace info` counts them.
#[test]
fn batch_replay_is_shard_invariant_and_exits_0_on_clean_traces() {
    let (v1, v2) = (tmp_trace("clean"), tmp_trace("clean-v2"));
    let (v1, v2) = (v1.to_str().expect("utf-8"), v2.to_str().expect("utf-8"));
    let mut recorded = Vec::new();
    for args in [
        &["trace", "record", "sort", v1][..],
        &["trace", "record", "sort", v2, "--compress"],
    ] {
        let out = run(args);
        assert_eq!(code(&out), 0, "{args:?}: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let words: Vec<&str> = stdout.split_whitespace().collect();
        let file = args[3];
        let [hooks, units, strands] = [1, 4, 7].map(|i| words[i].parse::<u64>().expect(&stdout));
        let line =
            format!("recorded {hooks} hooks as {units} units over {strands} strands into {file}");
        assert!(stdout.starts_with(&line), "{stdout}");
        assert!(units * 10 < hooks, "{stdout}");
        recorded.push((hooks, units, strands));
    }
    assert_eq!(recorded[0], recorded[1], "one run, two encodings");
    let info = String::from_utf8_lossy(&run(&["trace", "info", v1]).stdout).into_owned();
    assert!(
        info.contains(&format!("  units:   {}\n", recorded[0].1)),
        "{info}"
    );
    let replay = |file: &str, variant: &str, shards: &[&str]| {
        let out = run(&[&["trace", "replay", file, "--variant", variant][..], shards].concat());
        assert_eq!(code(&out), 0, "{file} {variant}: {}", stderr(&out));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let batch = replay(v1, "batch", &["--shards", "4"]);
    assert!(batch.contains("race free"), "{batch}");
    let body = |s: &str| s.split_once('\n').map(|(_, body)| body.to_string());
    assert_eq!(body(&replay(v1, "stint", &[])), body(&batch));
    let streamed = replay(v2, "batch", &["--shards", "4"]);
    let unstreamed: String = streamed
        .lines()
        .filter(|l| !l.starts_with("  ingested "))
        .map(|l| l.to_string() + "\n")
        .collect();
    assert_ne!(unstreamed, streamed, "no ingested line:\n{streamed}");
    assert_eq!(unstreamed, batch);
    for k in ["1", "7"] {
        assert_eq!(replay(v1, "batch", &["--shards", k]), batch, "v1, K={k}");
        assert_eq!(replay(v2, "batch", &["--shards", k]), streamed, "v2, K={k}");
    }
    let _ = (std::fs::remove_file(v1), std::fs::remove_file(v2));

    let out = run(&["detect", "sort", "--variant", "batch", "--shards", "3"]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("race free"));
}

#[test]
fn batch_exit_1_on_a_racy_trace() {
    // Hand-written trace: strands 1 and 2 have crossed English/Hebrew
    // ranks, so they are parallel — and both write word 0x10.
    let path = tmp_trace("racy");
    std::fs::write(
        &path,
        "STINT-TRACE v1\nstrands 3\n0 0\n1 2\n2 1\nevents 4\n\
         s 1 0x40 4\ne 1 0x0 0\ns 2 0x40 4\ne 2 0x0 0\n",
    )
    .expect("write racy trace");
    let p = path.to_str().expect("utf-8 temp path");
    let out = run(&["trace", "replay", p, "--variant", "batch"]);
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("write-write"), "stdout: {stdout}");
    let _ = std::fs::remove_file(&path);
}

/// `--fault-plan` applies to `trace record`, but a recording drops no
/// access under shadow faults, not even under a cap of zero chunks: as many
/// units as a fault-free recording, and a fault-free replay finds as many
/// races.
#[test]
fn recording_under_a_shadow_fault_plan_is_exact() {
    let (clean, faulted) = (tmp_trace("rec-clean"), tmp_trace("rec-faulted"));
    let (clean, faulted) = (
        clean.to_str().expect("utf-8"),
        faulted.to_str().expect("utf-8"),
    );
    let record = |file: &str, extra: &[&str]| {
        let out = run(&[&["trace", "record", "buggy-mmul", file][..], extra].concat());
        assert_eq!(code(&out), 0, "{extra:?}: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout.replace(file, "FILE")
    };
    let replay = |file: &str| {
        let out = run(&["trace", "replay", file, "--variant", "stint"]);
        assert_eq!(code(&out), 1, "{file}: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let races = stdout
            .lines()
            .find(|l| l.trim_start().starts_with("races:"));
        races.expect(&stdout).to_string()
    };
    let want = record(clean, &[]);
    for plan in ["shadow-pages=0", "shadow-pages=1", "shadow-oom-at=1"] {
        assert_eq!(record(faulted, &["--fault-plan", plan]), want, "{plan}");
        assert_eq!(replay(faulted), replay(clean), "{plan}");
    }
    let _ = (std::fs::remove_file(clean), std::fs::remove_file(faulted));
}

/// Every command that reads a trace reads it through one validating
/// loader: a damaged v1 or v2 file exits 4 with a `corrupt trace`
/// diagnostic under every replay variant, `trace info` and `witness
/// verify` — never 0, 1 or a panic's 101.
#[test]
fn batch_exit_4_on_corrupted_traces() {
    let good = "STINT-TRACE v1\nstrands 3\n0 0\n1 2\n2 1\nevents 4\n\
                s 1 0x40 4\ne 1 0x0 0\ns 2 0x40 4\ne 2 0x0 0\n";
    let pt = PortableTrace::record(&mut Workload::by_name("sort", Scale::Test));
    let mut v2 = Vec::new();
    pt.save_compressed(&mut v2, 4096).expect("save v2");
    let mut flipped = v2.clone();
    flipped[v2.len() / 2] ^= 0xff;
    // The last three parse, but name a strand the snapshot does not have
    // or a range past the end of the address space.
    let edits = [
        ("version", "STINT-TRACE v1", "STINT-TRACE v3"),
        ("bitflip", "s 2 0x40 4", "s 222 0x40 4"),
        ("strand", "s 1 0x40 4", "s 70000 0x40 4"),
        ("overflow", "s 1 0x40 4", "s 1 0xfffffffffffffffe 8"),
    ];
    let edited = edits.map(|(tag, from, to)| (tag, good.replacen(from, to, 1).into_bytes()));
    let mut corruptions = vec![("truncated", good.as_bytes()[..good.len() / 2].to_vec())];
    corruptions.extend(edited);
    corruptions.push(("truncated-v2", v2[..v2.len() / 2].to_vec()));
    corruptions.push(("bitflip-v2", flipped));
    let card = tmp_trace("card");
    std::fs::write(&card, "{}").expect("write card");
    let card = card.to_str().expect("utf-8 temp path");
    for (tag, bytes) in corruptions {
        let path = tmp_trace(tag);
        std::fs::write(&path, bytes).expect("write corrupt trace");
        let p = path.to_str().expect("utf-8 temp path");
        let variants = "vanilla compiler comp+rts stint stint-btree batch".split(' ');
        let replay = |v| vec!["trace", "replay", p, "--variant", v];
        let mut commands: Vec<Vec<&str>> = variants.map(replay).collect();
        commands.push(vec!["trace", "info", p]);
        commands.push(vec!["witness", "verify", p, card]);
        for args in commands {
            let out = run(&args);
            assert_eq!(code(&out), 4, "{tag}: {args:?}: stderr: {}", stderr(&out));
            // The trace is rejected, not the (unreadable) card.
            let err = stderr(&out);
            assert!(
                err.contains("corrupt trace") && !err.contains("REJECTED"),
                "{tag}: {args:?}: {err}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(card);
}

/// Replies the serve writer thread owns while the test reads them.
#[derive(Clone, Default)]
struct Replies(Arc<Mutex<Vec<u8>>>);

impl Write for Replies {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("reply buffer").write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A file that is not a trace, and an empty one, enter the batch tier by one
/// door: `trace replay --variant batch` (exit 4) and a serve DETECT frame
/// (status `corrupt`) name the defect in the same words.
#[test]
fn batch_replay_and_serve_reject_a_non_trace_with_one_detail() {
    let inputs = [
        ("not-a-trace", &b"not a trace at all\n"[..]),
        ("empty", &b""[..]),
    ];
    let mut frames = Vec::new();
    for (_, bytes) in inputs {
        let req = Request::Detect {
            opts: String::new(),
            trace: bytes.to_vec(),
        };
        protocol::write_request(&mut frames, &req).expect("frame");
    }
    // One session worker answers the frames in order.
    let engine = Arc::new(Engine::new(EngineConfig {
        session_workers: 1,
        pool_workers: 1,
        ..EngineConfig::default()
    }));
    let replies = Replies::default();
    run_frames(&engine, &frames[..], replies.clone(), true).expect("serve the frames");
    let wire = replies.0.lock().expect("reply buffer").clone();
    let mut wire = &wire[..];
    for (tag, bytes) in inputs {
        let resp = protocol::read_response(&mut wire)
            .expect("well-formed reply")
            .expect("one reply per frame");
        assert_eq!(resp.status, Status::Corrupt, "{tag}: {}", resp.payload);
        let served = resp.payload.lines().find(|l| l.starts_with("error: "));
        let path = tmp_trace(tag);
        std::fs::write(&path, bytes).expect("write input");
        let p = path.to_str().expect("utf-8 temp path");
        let out = run(&["trace", "replay", p, "--variant", "batch"]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(code(&out), 4, "{tag}: {}", stderr(&out));
        let err = stderr(&out);
        assert_eq!(err.lines().next(), served, "{tag}: {}", resp.payload);
        assert!(err.contains("bad magic"), "{tag}: {err}");
    }
}

#[test]
fn batch_usage_errors_exit_2() {
    for args in [
        &["detect", "sort", "--variant", "batch", "--shards", "0"][..],
        &["detect", "sort", "--variant", "batch", "--shards", "9999"][..],
        &[
            "trace",
            "replay",
            "/nonexistent.trace",
            "--variant",
            "batch",
        ][..],
        &[
            "detect",
            "sort",
            "--variant",
            "batch",
            "--stats-json",
            "/tmp/x.json",
        ][..],
        &[
            "detect",
            "sort",
            "--variant",
            "batch",
            "--max-intervals",
            "9",
        ][..],
    ] {
        let out = run(args);
        assert_eq!(code(&out), 2, "args {args:?}, stderr: {}", stderr(&out));
    }
}

#[test]
fn batch_exit_4_on_injected_shard_panic() {
    let out = run(&[
        "detect",
        "sort",
        "--variant",
        "batch",
        "--fault-plan",
        "panic-at-flush=1",
    ]);
    assert_eq!(code(&out), 4, "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("poisoned"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn degraded_run_still_prints_partial_report() {
    // The partial report must be printed before the exit-3 error: the
    // degradation message promises "results sound up to that point".
    let out = run(&["detect", "heat", "--max-intervals", "1"]);
    assert_eq!(code(&out), 3, "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("heat under"), "stdout: {stdout}");
}

/// Every fault class through the `STINT_FAULTS` environment variable, on two
/// benchmarks, live and replayed from a fault-free recording: a run may exit
/// 0 (clean), 1 (races), 3 (budget exhausted, sound partial report) or 4
/// (poisoned session) — anything else is an escaped panic or a crash.
#[test]
fn fault_plans_from_the_environment_exit_0_1_3_or_4() {
    let recorded = ["mmul", "sort"].map(|b| (b, recording(b, &format!("env-{b}"))));
    for plan in [
        "seed=1,om-tags=12",
        "seed=2,om-storm=2",
        "seed=3,om-tags=14,om-storm=3",
        "seed=4,shadow-pages=2",
        "seed=5,shadow-oom-at=4",
        "seed=6,treap-degenerate",
        "seed=7,worker-spawn-fail=0",
        "seed=8,worker-panic=0",
        "seed=9,panic-at-flush=1",
        "seed=10,om-storm=2,shadow-pages=2,treap-degenerate",
    ] {
        for (bench, file) in &recorded {
            let file = file.to_str().expect("utf-8");
            for args in [
                vec!["detect", bench],
                vec!["trace", "replay", file, "--variant", "stint"],
                vec!["trace", "replay", file, "--variant", "comp+rts"],
            ] {
                let out = cli(&args)
                    .env("STINT_FAULTS", plan)
                    .output()
                    .expect("spawn stint-cli");
                assert!(
                    matches!(out.status.code(), Some(0 | 1 | 3 | 4)),
                    "STINT_FAULTS={plan} {args:?}: {:?}, stderr: {}",
                    out.status,
                    stderr(&out)
                );
            }
        }
    }
    for (_, file) in recorded {
        let _ = std::fs::remove_file(file);
    }
}

/// The parallel online tier, over the relabel-free DePa substrate, reports
/// sequential SP-Order STINT's race and racy-word counts, with its exit code.
/// (That DePa under the sequential detectors matches SP-Order is a library
/// test, `crates/suite/tests/detect.rs`.)
#[test]
fn depa_and_online_report_the_sporder_races() {
    let detect = |extra: &[&str]| {
        let out = run(&[&["detect", "buggy-mmul"][..], extra].concat());
        assert_eq!(code(&out), 1, "{extra:?}: stderr: {}", stderr(&out));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let sporder = detect(&[]);
    let races = |report: &str| {
        let line = report
            .lines()
            .find(|l| l.trim_start().starts_with("races:"));
        line.map(str::to_string)
    };
    let online = detect(&["--online-parallel", "--workers", "2"]);
    assert!(races(&sporder).is_some(), "{sporder}");
    assert_eq!(races(&online), races(&sporder));
}
