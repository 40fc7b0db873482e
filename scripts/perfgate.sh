#!/usr/bin/env bash
# The pre-merge gate: style checks, release build, every smoke script, the
# committed studies regenerated and gated on their machine-independent
# counts (`jsoncheck batch|parallel|serve`; the `space` binary exits 1 on a
# Lemma 4.1 violation), then a two-pair smoke of the repo benchmark against
# the parent commit. No wall time is gated here: `scripts/bench_pair.sh REF
# 10` is the performance measurement.
#
# Usage: scripts/perfgate.sh [--scale s|m|paper]
# Arguments are forwarded to the `space`, `batch` and `parallel` studies;
# each overwrites its BENCH_*.json.

set -euo pipefail
cd "$(dirname "$0")/.."

ARGS=("$@")

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== cargo build --release"
cargo build --release -q

echo "== chaos gate (fault-injection suites)"
scripts/chaos.sh

echo "== obs smoke (exporters + cross-document agreement)"
scripts/obs_smoke.sh

echo "== mem smoke (gauge sampler + watermark/stats agreement)"
scripts/mem_smoke.sh

echo "== space study (byte gauges + Lemma 4.1)"
cargo run --release -q -p stint-bench --bin space -- "${ARGS[@]}"

echo "== batch smoke (sharded replay + compressed-trace equivalence on the CLI)"
scripts/batch_smoke.sh

echo "== witness smoke (emit -> verify -> tamper -> reject on the CLI)"
scripts/witness_smoke.sh

echo "== depa smoke (substrate equivalence + parallel-online determinism on the CLI)"
scripts/depa_smoke.sh

echo "== batch scalability study (sequential vs K-sharded vs streamed detection)"
cargo run --release -q -p stint-bench --bin batch -- "${ARGS[@]}"
cargo run --release -q -p stint-bench --bin jsoncheck -- batch BENCH_batch.json

echo "== parallel-online scaling study (sequential STINT vs W-worker online over DePa)"
cargo run --release -q -p stint-bench --bin parallel -- "${ARGS[@]}"
cargo run --release -q -p stint-bench --bin jsoncheck -- parallel BENCH_parallel.json

echo "== serve smoke (daemon transports, backpressure, ops plane, chaos soak)"
scripts/serve_smoke.sh

# The soak report serve_smoke just wrote: every gauge zero after drain, the
# obs-disabled phase never touched the registry or the flight ring, and the
# obs-full soak held within 10% of obs-off throughput.
echo "== telemetry plane gates (BENCH_serve.json v2)"
cargo run --release -q -p stint-bench --bin jsoncheck -- serve BENCH_serve.json

# Two alternated pairs on each of the seven workloads say nothing about a
# gain; they catch a change that breaks a verdict or blows an end-to-end
# bound. `scripts/bench_pair.sh REF 10` is the measurement.
echo "== paired repo-benchmark smoke (parent vs working tree)"
if git diff --quiet HEAD; then PAIR_REF=HEAD~1; else PAIR_REF=HEAD; fi
scripts/bench_pair.sh --quick "$PAIR_REF"
