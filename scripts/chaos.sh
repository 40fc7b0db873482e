#!/usr/bin/env bash
# Chaos gate: release build, then every fault-injection suite, then an
# end-to-end CLI sweep that runs detection under each fault class via the
# STINT_FAULTS environment variable. A run may exit 0 (clean), 1 (races),
# 3 (resource budget exhausted, sound partial report) or 4 (poisoned
# session) — anything else is an escaped panic or crash and fails the gate.
#
# Usage: scripts/chaos.sh
# Invoked from scripts/perfgate.sh.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release -q

echo "== chaos suites (release)"
cargo test --release -q -p stint-repro --test chaos
cargo test --release -q -p stint-om --test tag_pressure
cargo test --release -q -p stint-cilkrt --test degrade
cargo test --release -q -p stint-cli --test exit_codes

echo "== CLI sweep: all fault classes via STINT_FAULTS"
CLI=target/release/stint-cli
PLANS=(
    "seed=1,om-tags=12"
    "seed=2,om-storm=2"
    "seed=3,om-tags=14,om-storm=3"
    "seed=4,shadow-pages=2"
    "seed=5,shadow-oom-at=4"
    "seed=6,treap-degenerate"
    "seed=7,worker-spawn-fail=0"
    "seed=8,worker-panic=0"
    "seed=9,panic-at-flush=1"
    "seed=10,om-storm=2,shadow-pages=2,treap-degenerate"
)
for plan in "${PLANS[@]}"; do
    for bench in mmul sort; do
        set +e
        STINT_FAULTS="$plan" "$CLI" detect "$bench" >/dev/null 2>&1
        code=$?
        set -e
        case "$code" in
            0|1|3|4)
                printf '  ok: %-48s %s -> exit %d\n' "$plan" "$bench" "$code"
                ;;
            *)
                echo "FAIL: STINT_FAULTS='$plan' detect $bench exited $code (escaped panic?)"
                exit 1
                ;;
        esac
    done
done

echo "chaos gate passed"
