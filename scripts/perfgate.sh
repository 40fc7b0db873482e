#!/usr/bin/env bash
# The pre-merge gate: style checks, warning-free rustdoc, release build, the
# test suite in release (which runs every figure binary at `--scale test`),
# the wide claims row, the release binary's small-address-space row and the
# wide hook-level routing battery, the space study (the `space` binary exits
# 1 on a Lemma 4.1 violation), the repo benchmark's self-check (expectations,
# oracle, catalogue ≡ BENCHMARK.json), then a two-pair smoke of the repo
# benchmark against the parent commit. No wall time is gated here:
# `scripts/bench_pair.sh REF 10` is the performance measurement.
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

# Tier-1 in release: the fault-injection suites and CLI fault sweep, the
# exporter / cross-document agreement tests, the witness loop, the CLI's
# exit-code contract on every tier, the `stint-serve` daemon end to end and
# every figure binary (`crates/bench/tests/figures.rs`).
echo "== cargo test --release"
cargo test --release -q

# The claim rule's wide row (DESIGN.md §9): every suite kernel, three chunk
# sizes, every single-bit flip of every length and count field.
echo "== claims, wide"
cargo test --release -q --test claims -- --ignored

# The release binary replays a 2^22-event contiguous run under every variant
# and `trace info` inside `ulimit -v 200000` (DESIGN.md §12).
echo "== one long run, small address space"
cargo test --release -q -p stint-cli --test exit_codes -- --ignored

# 600 generated hook streams batch-detected from memory, v1 and three v2
# chunkings: every source hands the batch front the same runs, so each
# shard gets the same work.
echo "== hook-level routing battery, wide"
cargo test --release -q --test prop_batchdet -- --ignored

echo "== space study (byte gauges + Lemma 4.1)"
cargo run --release -q -p stint-bench --bin space -- "${ARGS[@]}"

# The benchmark is the only measurement system; this is its self-check. An
# in-repo build rewrites benchmark/Cargo.lock (it predates PR 17's manifest
# changes) and benchmark/ must stay byte-identical, so put it back before
# the smoke below checks it (and on any exit).
echo "== repo benchmark self-check (expectations, oracle, catalogue)"
trap 'git checkout -q benchmark/Cargo.lock' EXIT
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- check
git checkout -q benchmark/Cargo.lock

# Two alternated pairs on each of the seven workloads say nothing about a
# gain; they catch a change that breaks a verdict or blows an end-to-end
# bound. `scripts/bench_pair.sh REF 10` is the measurement.
echo "== paired repo-benchmark smoke (parent vs working tree)"
if git diff --quiet HEAD; then PAIR_REF=HEAD~1; else PAIR_REF=HEAD; fi
scripts/bench_pair.sh --quick "$PAIR_REF"
