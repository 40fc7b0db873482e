#!/usr/bin/env bash
# Performance gate: style checks, release build, then the legacy-vs-hot-path
# benchmark comparison. Fails if formatting/clippy are dirty, if a
# word-granularity variant's geomean speedup drops below 1.0 or STINT's
# hot-path ns/hook rises (geomean over benches) more than 15% above the
# committed BENCH_perfgate.json (--check), or — with --diff — if the
# regenerated BENCH_perfgate.json differs from the committed one (counts are
# deterministic; wall times always differ, so --diff compares geomeans only
# via the perfgate's own previous-run report).
#
# Usage: scripts/perfgate.sh [--scale s|m|paper] [--reps N] [--diff]
# Extra args are forwarded to the perfgate binary.

set -euo pipefail
cd "$(dirname "$0")/.."

DIFF=0
ARGS=()
for a in "$@"; do
    if [ "$a" = "--diff" ]; then DIFF=1; else ARGS+=("$a"); fi
done

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

# Telemetry-plane assertions on the soak report serve_smoke just wrote:
#  (a) the flight recorder and journal left every gauge zero after drain,
#  (b) the obs-disabled phase never touched the registry or the flight
#      ring (no journal/recorder work on the disabled path), and
#  (c) the obs-full soak held within 10% of obs-off throughput.
# `jsoncheck serve` validates the v2 shape here; `perfgate --check` below
# re-reads the same file and hard-fails on any of the three gates.
echo "== telemetry plane gates (BENCH_serve.json v2)"
cargo run --release -q -p stint-bench --bin jsoncheck -- serve BENCH_serve.json
for key in gauges_zero_after_drain obs_off_registry_untouched flight_idle_obs_off; do
    grep -q "\"$key\": true" BENCH_serve.json \
        || { echo "FAIL: BENCH_serve.json: $key is not true"; exit 1; }
done

# Two alternated pairs on each of the seven workloads say nothing about a
# gain; they catch a change that breaks a verdict or blows an end-to-end
# bound. `scripts/bench_pair.sh REF 10` is the measurement.
echo "== paired repo-benchmark smoke (parent vs working tree)"
if git diff --quiet HEAD; then PAIR_REF=HEAD~1; else PAIR_REF=HEAD; fi
scripts/bench_pair.sh --quick "$PAIR_REF"

echo "== perfgate"
if [ "$DIFF" = 1 ]; then
    # Leave the committed JSON in place so perfgate prints the comparison,
    # then restore it after capturing the fresh numbers next to it.
    cp BENCH_perfgate.json BENCH_perfgate.prev.json 2>/dev/null || true
    cargo run --release -q -p stint-bench --bin perfgate -- --check "${ARGS[@]}"
    if [ -f BENCH_perfgate.prev.json ]; then
        echo "== diff vs committed JSON (wall times will differ; inspect geomeans)"
        diff BENCH_perfgate.prev.json BENCH_perfgate.json || true
        rm -f BENCH_perfgate.prev.json
    fi
else
    cargo run --release -q -p stint-bench --bin perfgate -- --check "${ARGS[@]}"
fi
