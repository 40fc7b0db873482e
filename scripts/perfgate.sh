#!/usr/bin/env bash
# The pre-merge gate: style checks, warning-free rustdoc, release build, one iteration of each
# ivtree Criterion row, the test suite in release, the space study (the
# `space` binary exits 1 on a Lemma 4.1 violation), the repo
# benchmark's self-check (expectations, oracle, catalogue ≡ BENCHMARK.json),
# then a two-pair smoke of the repo benchmark against the parent commit. No
# wall time is gated here: `scripts/bench_pair.sh REF 10` is the performance
# measurement.
#
# Usage: scripts/perfgate.sh [--scale s|m|paper]
# Arguments are forwarded to the `space` study, which overwrites
# BENCH_space.json.

set -euo pipefail
cd "$(dirname "$0")/.."

ARGS=("$@")

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

# A doc link to a deleted or private name is an error, not a warning.
echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== cargo build --release"
cargo build --release -q

# Clippy only compiles the Criterion rows; this runs each once (the shim's
# `--test` mode), so a bench whose set-up assumption rotted fails here.
echo "== ivtree criterion rows, one iteration each"
cargo bench -q -p stint-bench --bench ivtree -- --test

# Tier-1 in release: the fault-injection suites and CLI fault sweep, the
# exporter / cross-document agreement tests, the witness loop, the CLI's
# exit-code contract on every tier and the `stint-serve` daemon end to end.
echo "== cargo test --release"
cargo test --release -q

echo "== space study (byte gauges + Lemma 4.1)"
cargo run --release -q -p stint-bench --bin space -- "${ARGS[@]}"

# The benchmark is the only measurement system; this is its self-check. An
# in-repo build rewrites benchmark/Cargo.lock (it predates PR 17's manifest
# changes) and benchmark/ must stay byte-identical, so put it back.
echo "== repo benchmark self-check (expectations, oracle, catalogue)"
trap 'git checkout -q benchmark/Cargo.lock' EXIT
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- check

# Two alternated pairs on each of the seven workloads say nothing about a
# gain; they catch a change that breaks a verdict or blows an end-to-end
# bound. `scripts/bench_pair.sh REF 10` is the measurement.
echo "== paired repo-benchmark smoke (parent vs working tree)"
if git diff --quiet HEAD; then PAIR_REF=HEAD~1; else PAIR_REF=HEAD; fi
scripts/bench_pair.sh --quick "$PAIR_REF"
