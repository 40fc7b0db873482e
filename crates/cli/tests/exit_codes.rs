//! End-to-end exit-code contract of `stint-cli`:
//! 0 = no races, 1 = races found, 2 = usage error, 3 = resource budget
//! exhausted (sound partial report), 4 = internal detector failure.

use std::process::{Command, Output};

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
/// and the command — never silently ignored. (The five below exited 0
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
    let out = run(&["detect", "mmul", "--max-intervals", "1"]);
    assert_eq!(code(&out), 3, "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("detector overloaded"), "stderr: {err}");
    assert!(err.contains("sound up to that point"), "stderr: {err}");
}

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
}

#[test]
fn exit_4_injected_internal_failure() {
    let out = run(&["detect", "sort", "--fault-plan", "panic-at-flush=1"]);
    assert_eq!(code(&out), 4, "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("poisoned"),
        "stderr: {}",
        stderr(&out)
    );
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

#[test]
fn batch_replay_is_shard_invariant_and_exits_0_on_clean_traces() {
    let path = tmp_trace("clean");
    let p = path.to_str().expect("utf-8 temp path");
    let out = run(&["trace", "record", "sort", p]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let a = run(&["trace", "replay", p, "--variant", "batch", "--shards", "1"]);
    assert_eq!(code(&a), 0, "stderr: {}", stderr(&a));
    let b = run(&["trace", "replay", p, "--variant", "batch", "--shards", "7"]);
    assert_eq!(code(&b), 0, "stderr: {}", stderr(&b));
    // The replay output is byte-identical regardless of the shard count.
    assert_eq!(a.stdout, b.stdout, "batch replay output varies with K");
    assert!(String::from_utf8_lossy(&a.stdout).contains("race free"));
    let _ = std::fs::remove_file(&path);

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

#[test]
fn batch_exit_4_on_corrupted_traces() {
    let good = "STINT-TRACE v1\nstrands 3\n0 0\n1 2\n2 1\nevents 4\n\
                s 1 0x40 4\ne 1 0x0 0\ns 2 0x40 4\ne 2 0x0 0\n";
    let corruptions: [(&str, String); 3] = [
        ("truncated", good[..good.len() / 2].to_string()),
        (
            "version",
            good.replacen("STINT-TRACE v1", "STINT-TRACE v3", 1),
        ),
        // Parses fine, but the strand id does not exist in the snapshot.
        ("bitflip", good.replacen("s 2 0x40 4", "s 222 0x40 4", 1)),
    ];
    for (tag, text) in corruptions {
        let path = tmp_trace(tag);
        std::fs::write(&path, text).expect("write corrupt trace");
        let p = path.to_str().expect("utf-8 temp path");
        let out = run(&["trace", "replay", p, "--variant", "batch"]);
        assert_eq!(code(&out), 4, "{tag}: stderr: {}", stderr(&out));
        assert!(
            stderr(&out).contains("corrupt trace"),
            "{tag}: stderr: {}",
            stderr(&out)
        );
        let _ = std::fs::remove_file(&path);
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
/// benchmarks: a run may exit 0 (clean), 1 (races), 3 (budget exhausted,
/// sound partial report) or 4 (poisoned session) — anything else is an
/// escaped panic or a crash.
#[test]
fn fault_plans_from_the_environment_exit_0_1_3_or_4() {
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
        for bench in ["mmul", "sort"] {
            let out = cli(&["detect", bench])
                .env("STINT_FAULTS", plan)
                .output()
                .expect("spawn stint-cli");
            assert!(
                matches!(out.status.code(), Some(0 | 1 | 3 | 4)),
                "STINT_FAULTS={plan} detect {bench}: {:?}, stderr: {}",
                out.status,
                stderr(&out)
            );
        }
    }
}
