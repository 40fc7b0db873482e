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

/// Every variant runs on its own allocation of the program, so the racy
/// words sit at different addresses in each run: the variants agree on how
/// many there are, and no warning says otherwise.
#[test]
fn every_variant_agrees_on_a_racy_benchmark() {
    let out = run(&["detect", "buggy-merge", "--variant", "all"]);
    assert_eq!(code(&out), 1, "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("all 4 variants agree: 8 racy word(s)"),
        "{stdout}"
    );
    assert!(
        !stderr(&out).contains("warning"),
        "stderr: {}",
        stderr(&out)
    );
}

/// The sharded live strategy has one spelling, `--variant batch`: the
/// switch that once named it is an unknown option.
#[test]
fn exit_2_the_retired_online_switch_is_an_unknown_option() {
    let out = run(&["detect", "sort", "--online-parallel"]);
    assert_eq!(code(&out), 2, "stderr: {}", stderr(&out));
    let want = "error: unknown option \"--online-parallel\"";
    assert!(stderr(&out).contains(want), "stderr: {}", stderr(&out));
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
    let online = "--variant batch --workers 2";
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
        vec!["detect", "sort", "--variant", "batch", "--workers", "2"],
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

/// A v2 file of 31 bytes whose valid header claims 2^32 - 1 strands.
fn v2_claiming_strands() -> Vec<u8> {
    let mut header = Vec::new();
    stint::varint::put(&mut header, u64::from(u32::MAX));
    let mut file = format!("{}\n", stint::MAGIC_V2).into_bytes();
    stint::varint::put(&mut file, header.len() as u64);
    stint::varint::put(&mut file, stint::ctrace::fnv1a(&header));
    file.extend(header);
    file
}

/// `trace info` sums the access bytes exactly: two stores that each fit the
/// address space but together pass 2^64 bytes (a file that loads and
/// checks) print their true total, not a wrapped sum or an overflow panic.
#[test]
fn trace_info_byte_total_passes_2_to_the_64() {
    let path = tmp_trace("info-bytes");
    let store = "s 0 0x0 18446744073709551000\n";
    let text = format!("STINT-TRACE v1\nstrands 1\n0 0\nevents 2\n{store}{store}");
    std::fs::write(&path, text).expect("write trace");
    let out = run(&["trace", "info", path.to_str().expect("utf-8 temp path")]);
    assert_eq!(code(&out), 0, "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("  bytes:   36893488147419102000\n"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(path);
}

/// A valid v2 file of a few hundred bytes: one strand's run of 2^22
/// four-byte stores `stride` bytes apart (4: contiguous; 0: one word), then
/// its end.
fn v2_with_one_long_run(stride: u64) -> Vec<u8> {
    use stint::{ctrace::HIST_BUCKETS, varint::put, wire::put_frame};
    let (addr, count) = (0x10_0000u64, 1u64 << 22);
    // One strand ranked first in both orders, the events, the word bounds
    // and an empty partition index.
    let mut header = Vec::new();
    let claims = [1, 0, 0, count + 1, addr / 4, count, HIST_BUCKETS as u64];
    for v in claims.into_iter().chain([0; HIST_BUCKETS]) {
        put(&mut header, v);
    }
    // Op tags 1 (`Store`) and 5 (`StrandEnd`), strand 0; the address and
    // the stride are zigzag-coded.
    let mut payload = vec![1];
    for v in [0, addr * 2, 4, count, stride * 2] {
        put(&mut payload, v);
    }
    payload.extend([5, 0]);
    let mut file = format!("{}\n", stint::MAGIC_V2).into_bytes();
    put_frame(&mut file, &header);
    put(&mut file, 2);
    put_frame(&mut file, &payload);
    file
}

/// A trace costs the detector's own state plus one chunk on every tier: the
/// file above stands for 2^22 events, which no replay or `trace info`
/// expands into memory, so every one finishes in a 200 MB address space
/// (a whole-trace load asked for 192 MiB at once and aborted). With stride
/// 0 every store is a unit of its own on one word, which a batch shard
/// joins as the units arrive. Run against the release binary: `cargo test
/// --release --test exit_codes -- --ignored`.
#[test]
#[ignore = "release-binary address-space row: scripts/perfgate.sh runs it with -- --ignored"]
fn one_long_contiguous_run_replays_in_a_small_address_space() {
    let path = tmp_trace("contiguous-run");
    let p = path.to_str().expect("utf-8 temp path");
    let mut commands: Vec<String> = "vanilla compiler comp+rts stint stint-btree batch"
        .split(' ')
        .map(|v| format!("trace replay {p} --variant {v}"))
        .collect();
    commands.push(format!("trace info {p}"));
    for stride in [4, 0] {
        std::fs::write(&path, v2_with_one_long_run(stride)).expect("write trace");
        for args in &commands {
            let bin = env!("CARGO_BIN_EXE_stint-cli");
            let script = format!("ulimit -v 200000; exec {bin} {args} >/dev/null");
            let out = Command::new("sh")
                .args(["-c", &script])
                .env_remove("STINT_FAULTS")
                .output()
                .expect("spawn sh");
            let status = out.status;
            assert!(
                status.success(),
                "stride {stride}, {args}: {status}: stderr: {}",
                stderr(&out)
            );
        }
    }
    let _ = std::fs::remove_file(path);
}

/// Recording costs the program plus each strand's coalescer tables: `trace
/// record` stores the units as each strand closes, never the hook stream
/// (16.8 M hooks for `mmul --scale s`, which took 390 MB to buffer and
/// aborted in a 200 MB address space). Run against the release binary:
/// `cargo test --release --test exit_codes -- --ignored`.
#[test]
#[ignore = "release-binary address-space row: scripts/perfgate.sh runs it with -- --ignored"]
fn recording_a_kernel_fits_a_small_address_space() {
    let path = tmp_trace("record-small");
    let p = path.to_str().expect("utf-8 temp path");
    for bench in ["mmul", "sort"] {
        let bin = env!("CARGO_BIN_EXE_stint-cli");
        let args = format!("trace record {bench} {p} --scale s --compress");
        let script = format!("ulimit -v 200000; exec {bin} {args} >/dev/null");
        let out = Command::new("sh")
            .args(["-c", &script])
            .env_remove("STINT_FAULTS")
            .output()
            .expect("spawn sh");
        let status = out.status;
        assert!(
            status.success(),
            "{args}: {status}: stderr: {}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_file(path);
}

/// One race 2^27 words wide in a 114-byte v1 file: two parallel strands
/// each store 512 MiB at one address. Sequential STINT and STINT(btree)
/// keep the racy words as intervals and count them without listing them,
/// so each exits 1 with the same count in a 200 MB address space (listing
/// them asked for 1 GiB at once and aborted). vanilla, compiler and
/// comp+rts keep a history per word, and the batch tier still lists its
/// racy words, so neither is a row here. Run against the release binary:
/// `cargo test --release --test exit_codes -- --ignored`.
#[test]
#[ignore = "release-binary address-space row: scripts/perfgate.sh runs it with -- --ignored"]
fn one_wide_race_is_counted_in_a_small_address_space() {
    let path = tmp_trace("wide-race");
    let trace = "STINT-TRACE v1\nstrands 3\n0 0 -\n1 2 0\n2 1 0\nevents 4\n\
                 S 1 0x1000 536870912\ne 1 0x0 0\nS 2 0x1000 536870912\ne 2 0x0 0\n";
    assert_eq!(trace.len(), 114);
    std::fs::write(&path, trace).expect("write trace");
    let p = path.to_str().expect("utf-8 temp path");
    let mut counts = Vec::new();
    for variant in ["stint", "stint-btree"] {
        let bin = env!("CARGO_BIN_EXE_stint-cli");
        let script = format!("ulimit -v 200000; exec {bin} trace replay {p} --variant {variant}");
        let out = Command::new("sh")
            .args(["-c", &script])
            .env_remove("STINT_FAULTS")
            .output()
            .expect("spawn sh");
        assert_eq!(code(&out), 1, "{variant}: stderr: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let races = stdout
            .lines()
            .find(|l| l.trim_start().starts_with("races:"));
        counts.push(races.expect("a races line").to_string());
    }
    assert!(
        counts[0].ends_with(" 134217728 distinct racy word(s)"),
        "{counts:?}"
    );
    assert_eq!(counts[0], counts[1]);
    let _ = std::fs::remove_file(path);
}

/// A header's strand or event count is only a claim: a file that claims
/// more than it holds is corrupt (exit 4), not an allocation to abort on.
#[test]
fn exit_4_on_counts_the_file_cannot_hold() {
    let files = [
        ("v2-strands", v2_claiming_strands()),
        (
            "v1-strands",
            b"STINT-TRACE v1\nstrands 4294967295\n".to_vec(),
        ),
        (
            "v1-strands-huge",
            b"STINT-TRACE v1\nstrands 9999999999999999\n".to_vec(),
        ),
        (
            "v1-events",
            b"STINT-TRACE v1\nstrands 1\n0 0\nevents 4294967295\n".to_vec(),
        ),
        (
            "v1-events-huge",
            b"STINT-TRACE v1\nstrands 1\n0 0\nevents 9999999999999999\n".to_vec(),
        ),
    ];
    for (tag, bytes) in files {
        let path = tmp_trace(tag);
        std::fs::write(&path, bytes).expect("write crafted trace");
        let p = path.to_str().expect("utf-8 temp path");
        for args in [
            &["trace", "replay", p][..],
            &["trace", "replay", p, "--variant", "batch"],
        ] {
            let out = run(args);
            let err = stderr(&out);
            assert_eq!(code(&out), 4, "{tag}: {args:?}: stderr: {err}");
            assert!(err.contains("corrupt trace"), "{tag}: {args:?}: {err}");
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A report card is input too: one nested 200 000 arrays deep is refused
/// like a truncated one (exit 4, `REJECTED`), not a stack overflow.
#[test]
fn witness_verify_exits_4_on_a_card_nested_too_deep() {
    let trace = recording("sort", "deep-card");
    let deep = tmp_trace("deep-card-json");
    let cards = [
        (
            "deep",
            format!("{}{}", "[".repeat(200_000), "]".repeat(200_000)),
        ),
        ("truncated", "{\"races\": [".to_string()),
    ];
    for (tag, card) in cards {
        std::fs::write(&deep, card).expect("write card");
        let out = run(&[
            "witness",
            "verify",
            trace.to_str().expect("utf-8 temp path"),
            deep.to_str().expect("utf-8 temp path"),
        ]);
        let err = stderr(&out);
        assert_eq!(code(&out), 4, "{tag}: {err}");
        assert!(err.contains("REJECTED"), "{tag}: {err}");
    }
    let _ = (std::fs::remove_file(trace), std::fs::remove_file(deep));
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
        &["detect", "sort", "--variant", "batch", "--compress"][..],
        &[
            "trace",
            "replay",
            "/nonexistent.trace",
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
/// sequential SP-Order STINT's race and racy-word counts, with its exit code,
/// and its whole stdout is the same under another steal seed — up to where
/// each process's heap sits (ASLR), so addresses are compared [`rebased`].
/// (That DePa under the sequential detectors matches SP-Order is a library
/// test, `tests/detect.rs` at the workspace root.)
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
    let online = detect(&["--variant", "batch", "--workers", "2"]);
    assert!(races(&sporder).is_some(), "{sporder}");
    assert_eq!(races(&online), races(&sporder));
    let seeded = detect(&["--variant", "batch", "--workers", "2", "--steal-seed", "7"]);
    assert_eq!(rebased(&seeded), rebased(&online), "{seeded}");
}

/// A live `--variant batch` run prints one report whatever its pool and
/// batch size: its rebased stdout is the same under one or two workers and
/// another steal seed, and, but for the merge cycles its header counts,
/// under another `--chunk-events`.
#[test]
fn batch_and_online_detect_print_the_same_report() {
    let detect = |extra: &[&str]| {
        let args = [
            "detect",
            "buggy-mmul",
            "--shards",
            "3",
            "--variant",
            "batch",
        ];
        let out = run(&[&args[..], extra].concat());
        assert_eq!(code(&out), 1, "{extra:?}: stderr: {}", stderr(&out));
        rebased(&String::from_utf8_lossy(&out.stdout))
    };
    let one = detect(&["--workers", "1"]);
    assert_eq!(detect(&["--workers", "2"]), one);
    assert_eq!(detect(&["--workers", "2", "--steal-seed", "7"]), one);
    let cycles = |s: &str| {
        s.split_once(" merge cycle(s)\n")
            .expect("a header")
            .1
            .to_string()
    };
    let chunked = detect(&["--workers", "2", "--chunk-events", "64"]);
    assert_eq!(cycles(&chunked), cycles(&one), "{chunked}");
}

/// A live `--variant batch` card and a live sequential STINT card number
/// the same stream, the program's hooks: each has the same set of races by
/// kind, strands and witness spans. (Addresses differ between processes.)
#[test]
fn batch_and_online_witness_cards_number_the_hooks() {
    let card = |tag: &str, extra: &[&str]| {
        let path = tmp_trace(tag);
        let p = path.to_str().expect("utf-8 temp path");
        let args = ["detect", "buggy-merge", "--witness", "--report-json", p];
        let out = run(&[&args[..], extra].concat());
        assert_eq!(code(&out), 1, "{extra:?}: stderr: {}", stderr(&out));
        let text = std::fs::read_to_string(&path).expect("read the card");
        let _ = std::fs::remove_file(&path);
        let card = stint::report_card::Card::read(&text).expect("the card reads");
        let races = card.runs.iter().flat_map(|r| &r.races);
        let shape = |r: &stint::Race| {
            let w = r.witness.as_ref().expect("a witnessed race");
            let span = |a: &stint::witness::AccessEvidence| (a.strand, a.first_event, a.last_event);
            (
                r.kind.to_string(),
                r.prev,
                r.cur,
                span(&w.prev),
                span(&w.cur),
            )
        };
        races.map(shape).collect::<std::collections::BTreeSet<_>>()
    };
    let batch = card("card-batch", &["--variant", "batch"]);
    assert!(!batch.is_empty());
    assert_eq!(batch, card("card-stint", &["--variant", "stint"]));
}

/// `report` with the k-th address of each line replaced by its offset from
/// the k-th address of the first line that has one: word and byte addresses
/// each keep their layout, not the heap base the process happened to get.
fn rebased(report: &str) -> String {
    let mut bases: Vec<u64> = Vec::new();
    let mut out = String::new();
    for line in report.lines() {
        let mut rest = line;
        let mut k = 0;
        while let Some(at) = rest.find("0x") {
            out.push_str(&rest[..at]);
            let digits = &rest[at + 2..];
            let end = digits
                .find(|c: char| !c.is_ascii_hexdigit())
                .unwrap_or(digits.len());
            let addr = u64::from_str_radix(&digits[..end], 16).expect("a hex address");
            if bases.len() == k {
                bases.push(addr);
            }
            out.push_str(&format!("base{k}{:+}", addr as i128 - bases[k] as i128));
            rest = &digits[end..];
            k += 1;
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

/// One `free` of 2^60 bytes spliced into a test-scale recording, right
/// after its first access: a run of 2^58 words, far wider than a treap
/// node's 32-bit length and than the shadow pages the word-granularity
/// variants map. Every variant and the batch tier finish with the exit code
/// and the racy words of one verdict.
#[test]
fn a_huge_free_replays_under_every_variant() {
    for (bench, want) in [("mmul", 0), ("buggy-mmul", 1)] {
        let path = recording(bench, &format!("huge-free-{bench}"));
        let text = std::fs::read_to_string(&path).expect("read trace");
        let (head, rest) = text.split_once("\nevents ").expect("an events line");
        let (count, body) = rest.split_once('\n').expect("events");
        let events: Vec<&str> = body.lines().collect();
        let at = events
            .iter()
            .position(|l| !l.starts_with("e "))
            .expect("an access");
        let strand = events[at].split(' ').nth(1).expect("a strand");
        let free = format!("f {strand} 0x1000 {}", 1u64 << 60);
        let count: u64 = count.parse().expect("event count");
        let mut spliced = events;
        spliced.insert(at + 1, &free);
        let spliced = format!("{head}\nevents {}\n{}\n", count + 1, spliced.join("\n"));
        std::fs::write(&path, spliced).expect("write trace");
        let file = path.to_str().expect("utf-8");
        let mut verdicts = Vec::new();
        for variant in "vanilla compiler comp+rts stint stint-btree batch".split(' ') {
            let out = run(&["trace", "replay", file, "--variant", variant]);
            assert_eq!(code(&out), want, "{bench} {variant}: {}", stderr(&out));
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            let races = stdout
                .lines()
                .find_map(|l| l.trim_start().strip_prefix("races:"))
                .expect("a races line");
            // Report counts differ by granularity; the racy words may not.
            let words = races.rsplit(", ").next().expect("racy words").trim();
            verdicts.push((variant, words.to_string()));
        }
        assert!(
            verdicts.iter().all(|v| v.1 == verdicts[0].1),
            "{bench}: {verdicts:?}"
        );
        assert_eq!(
            verdicts[0].1.starts_with("none"),
            want == 0,
            "{bench}: {verdicts:?}"
        );
        let _ = std::fs::remove_file(path);
    }
}
