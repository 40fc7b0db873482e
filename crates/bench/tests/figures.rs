//! The figure binaries end to end: each `fig*` at `--scale test` exits 0
//! and prints its title and one row per kernel, `cases` narrates to its
//! Lemma 4.1 line, and a figure binary handed anything but one `--scale S`
//! exits 2 and prints no table. `space` is only handed a typo here: a run
//! rewrites `BENCH_space.json`, and `scripts/perfgate.sh` runs it.

use std::process::{Command, Output};
use stint_suite::NAMES;

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{exe} does not start: {e}"))
}

/// Runs `exe` with `args`, asserts exit 0 and a first line that starts with
/// `title`, and returns stdout.
fn figure(exe: &str, args: &[&str], title: &str) -> String {
    let o = run(exe, args);
    let out = String::from_utf8(o.stdout).expect("stdout is UTF-8");
    assert!(
        o.status.success(),
        "{exe} {args:?}: {}\n{}",
        o.status,
        String::from_utf8_lossy(&o.stderr)
    );
    let first = out.lines().next().unwrap_or_default();
    assert!(
        first.starts_with(title) && first.ends_with("(scale=test)"),
        "{exe}: title line {first:?}"
    );
    out
}

/// How many lines of `out` have `name` as their first cell.
fn rows(out: &str, name: &str) -> usize {
    out.lines()
        .filter(|l| l.split_whitespace().next() == Some(name))
        .count()
}

fn one_row_per_kernel(out: &str) {
    for name in NAMES {
        assert_eq!(rows(out, name), 1, "rows for {name} in\n{out}");
    }
}

#[test]
fn fig1_prints_one_row_per_kernel() {
    let out = figure(env!("CARGO_BIN_EXE_fig1"), &["--scale", "test"], "Figure 1");
    one_row_per_kernel(&out);
}

#[test]
fn fig5_prints_one_row_per_kernel_and_the_geomean() {
    let out = figure(env!("CARGO_BIN_EXE_fig5"), &["--scale", "test"], "Figure 5");
    one_row_per_kernel(&out);
    assert_eq!(rows(&out, "geomean"), 1, "geomean row in\n{out}");
}

#[test]
fn fig6_prints_one_row_per_kernel() {
    // The `--scale=S` spelling.
    let out = figure(env!("CARGO_BIN_EXE_fig6"), &["--scale=test"], "Figure 6");
    one_row_per_kernel(&out);
}

#[test]
fn fig7_prints_one_row_per_kernel() {
    let out = figure(env!("CARGO_BIN_EXE_fig7"), &["--scale", "test"], "Figure 7");
    one_row_per_kernel(&out);
}

#[test]
fn fig8_prints_three_sizes_of_each_kernel() {
    let out = figure(env!("CARGO_BIN_EXE_fig8"), &["--scale", "test"], "Figure 8");
    for name in ["fft", "mmul", "sort"] {
        assert_eq!(rows(&out, name), 3, "rows for {name} in\n{out}");
    }
}

#[test]
fn cases_ends_on_the_lemma_bound() {
    let o = run(env!("CARGO_BIN_EXE_cases"), &[]);
    let out = String::from_utf8(o.stdout).expect("stdout is UTF-8");
    assert!(o.status.success(), "cases: {}", o.status);
    assert!(
        out.starts_with("== Write tree (Figure 2)"),
        "cases: title in\n{out}"
    );
    assert_eq!(
        out.lines().last().map(str::trim),
        Some("inserts: 4, intervals: 7 <= 9"),
        "cases: closing line in\n{out}"
    );
}

#[test]
fn a_figure_binary_rejects_what_it_does_not_understand() {
    for (args, named) in [
        (&["--scale"][..], "--scale"),
        (&["--scael", "test"][..], "--scael"),
    ] {
        let o = run(env!("CARGO_BIN_EXE_fig1"), args);
        let err = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(2), "fig1 {args:?}: {}", o.status);
        assert!(o.stdout.is_empty(), "fig1 {args:?} printed a table");
        assert!(err.contains(named), "fig1 {args:?}: stderr {err:?}");
    }
}

/// `scripts/perfgate.sh ARGS` forwards ARGS to `space`, which must not write
/// its table at the default scale when one is mistyped.
#[test]
fn space_rejects_a_mistyped_scale_before_writing() {
    let out = std::env::temp_dir().join(format!("figures-space-{}.json", std::process::id()));
    let o = run(
        env!("CARGO_BIN_EXE_space"),
        &[
            "--scael",
            "m",
            "--out",
            out.to_str().expect("a UTF-8 temp path"),
        ],
    );
    assert_eq!(o.status.code(), Some(2), "space --scael m: {}", o.status);
    assert!(!out.exists(), "space --scael m wrote {}", out.display());
}
