#!/usr/bin/env bash
# Serve-mode smoke test: drive the stint-serve daemon end to end on the
# real binaries, over both transports, and prove the robustness claims the
# unit suite makes in-process:
#
#  * a framed stdio conversation (ping, clean v1, clean v2, racy, corrupt,
#    timed-out, stats, shutdown) answers every session with the right
#    status and ends with a clean `bye`;
#  * a saturated daemon (1 worker, queue depth 1) answers `busy` with a
#    retry-after hint instead of queueing without bound, and still serves
#    the sessions it admitted;
#  * the unix-socket transport round-trips: a one-shot `send` client gets
#    the 0-4 exit-code contract (clean 0, racy 1), and `send --shutdown`
#    drains the daemon to a clean exit;
#  * the ops plane round-trips on the real daemon: a journaled stdio
#    conversation leaves a `stint-journal-v1` file that `journal
#    inspect`/`replay` and `jsoncheck journal` accept, a HEALTH frame
#    answers the operational snapshot, and the post-drain `--prom-out` /
#    `--flight-dump` exports pass `jsoncheck prom` / `validate`.
#
# Concurrent mixed traffic under an injected-panic plan is an in-process
# property of the `Engine`; crates/serve/tests/serve.rs checks it at tier 1.
#
# Usage: scripts/serve_smoke.sh [bench] (default: sort)

set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${1:-sort}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

cargo build --release -q -p stint-cli --bin stint-cli
cargo build --release -q -p stint-serve --bin stint-serve
cargo build --release -q -p stint-bench --bin jsoncheck
SERVE=./target/release/stint-serve

echo "== corpus: record $BENCH (v1 + compressed v2), handcraft racy + corrupt"
./target/release/stint-cli trace record "$BENCH" "$OUT/clean.trace" >/dev/null
./target/release/stint-cli trace record "$BENCH" "$OUT/clean.ctrace" --compress >/dev/null
printf 'STINT-TRACE v1\nstrands 3\n0 0\n1 2\n2 1\nevents 4\ns 1 0x40 4\ne 1 0x0 0\ns 2 0x40 4\ne 2 0x0 0\n' \
    >"$OUT/racy.trace"
head -c "$(($(wc -c <"$OUT/clean.trace") / 2))" "$OUT/clean.trace" >"$OUT/bad.trace"

echo "== stdio transport: one framed conversation, every status"
{
    "$SERVE" frame ping
    "$SERVE" frame detect "$OUT/clean.trace"
    "$SERVE" frame detect --opts shards=2 "$OUT/clean.ctrace"
    "$SERVE" frame detect "$OUT/racy.trace"
    "$SERVE" frame detect "$OUT/bad.trace"
    "$SERVE" frame detect --opts frobnicate "$OUT/clean.trace"
    "$SERVE" frame detect --opts timeout-ms=0 "$OUT/clean.ctrace"
    "$SERVE" frame stats
    "$SERVE" frame shutdown
} >"$OUT/conv.frames"
"$SERVE" serve --stdio <"$OUT/conv.frames" >"$OUT/conv.resp"
"$SERVE" decode <"$OUT/conv.resp" >"$OUT/conv.txt"
# STATS is answered inline by the reader while detect sessions complete
# asynchronously, so assert the snapshot's shape, not its mid-stream counts.
for want in "kind: pong" ": racy" ": corrupt" ": usage" ": degraded" \
    "kind: stats" "session-workers: 2" "queued: " ": bye"; do
    grep -q "$want" "$OUT/conv.txt" \
        || { echo "FAIL: stdio conversation missing \"$want\""; cat "$OUT/conv.txt"; exit 1; }
done
[ "$(grep -c -- "-- session .*: ok" "$OUT/conv.txt")" -ge 2 ] \
    || { echo "FAIL: expected two clean sessions to answer ok"; cat "$OUT/conv.txt"; exit 1; }
echo "ok: ping/ok/racy/corrupt/usage/degraded/stats/bye all observed"

echo "== backpressure: 1 worker, queue depth 1 => busy with retry-after"
for _ in 1 2 3 4 5 6; do
    "$SERVE" frame detect --opts stall-ms=100 "$OUT/racy.trace"
done >"$OUT/storm.frames"
"$SERVE" serve --stdio --session-workers 1 --queue-depth 1 \
    <"$OUT/storm.frames" >"$OUT/storm.resp"
"$SERVE" decode <"$OUT/storm.resp" >"$OUT/storm.txt"
grep -q "retry-after-ms" "$OUT/storm.txt" \
    || { echo "FAIL: saturated daemon never answered busy"; cat "$OUT/storm.txt"; exit 1; }
grep -q ": racy" "$OUT/storm.txt" \
    || { echo "FAIL: admitted sessions were not served"; cat "$OUT/storm.txt"; exit 1; }
echo "ok: saturation answers busy (retry-after hint) and admitted work completes"

echo "== unix-socket transport: daemon, one-shot client, graceful shutdown"
SOCK="$OUT/serve.sock"
"$SERVE" serve --socket "$SOCK" --idle-timeout-ms 5000 2>"$OUT/daemon.err" &
DAEMON=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.05; done
[ -S "$SOCK" ] || { echo "FAIL: daemon never bound $SOCK"; cat "$OUT/daemon.err"; exit 1; }
"$SERVE" send --socket "$SOCK" --ping "$OUT/clean.trace" >"$OUT/send1.txt"
grep -q ": ok" "$OUT/send1.txt" \
    || { echo "FAIL: clean trace over socket not ok"; cat "$OUT/send1.txt"; exit 1; }
set +e
"$SERVE" send --socket "$SOCK" "$OUT/racy.trace" >"$OUT/send2.txt"
RC=$?
set -e
[ "$RC" = 1 ] || { echo "FAIL: racy trace exited $RC, expected 1"; cat "$OUT/send2.txt"; exit 1; }
"$SERVE" send --socket "$SOCK" --shutdown >"$OUT/send3.txt"
grep -q ": bye" "$OUT/send3.txt" \
    || { echo "FAIL: shutdown did not answer bye"; cat "$OUT/send3.txt"; exit 1; }
wait "$DAEMON" \
    || { echo "FAIL: daemon exited nonzero after shutdown"; cat "$OUT/daemon.err"; exit 1; }
[ ! -S "$SOCK" ] || { echo "FAIL: socket file not removed on shutdown"; exit 1; }
echo "ok: socket round trip (exit 0/1 contract) and clean drain"

echo "== ops plane: journal + HEALTH + prometheus + flight dump on the daemon"
{
    "$SERVE" frame health
    "$SERVE" frame detect "$OUT/clean.trace"
    "$SERVE" frame detect "$OUT/racy.trace"
    "$SERVE" frame shutdown
} >"$OUT/ops.frames"
"$SERVE" serve --stdio --obs full --journal "$OUT/ops.journal" \
    --journal-fsync every=8 --prom-out "$OUT/ops.prom" \
    --flight-dump "$OUT/ops.flight" <"$OUT/ops.frames" >"$OUT/ops.resp"
"$SERVE" decode <"$OUT/ops.resp" >"$OUT/ops.txt"
for want in "kind: health" "uptime-ms: " "journal: " ": racy" ": bye"; do
    grep -q "$want" "$OUT/ops.txt" \
        || { echo "FAIL: ops conversation missing \"$want\""; cat "$OUT/ops.txt"; exit 1; }
done
./target/release/jsoncheck journal "$OUT/ops.journal"
./target/release/jsoncheck prom "$OUT/ops.prom"
./target/release/jsoncheck validate "$OUT/ops.flight"
grep -q "stint-flight-v1" "$OUT/ops.flight" \
    || { echo "FAIL: flight dump is not a stint-flight-v1 document"; exit 1; }
"$SERVE" journal inspect "$OUT/ops.journal" >"$OUT/ops.inspect"
grep -q "clean: true" "$OUT/ops.inspect" \
    || { echo "FAIL: journal inspect reports damage"; cat "$OUT/ops.inspect"; exit 1; }
grep -q "in-flight: 0" "$OUT/ops.inspect" \
    || { echo "FAIL: drained daemon left sessions in flight"; cat "$OUT/ops.inspect"; exit 1; }
"$SERVE" journal replay "$OUT/ops.journal" | grep -q "verdict" \
    || { echo "FAIL: journal replay shows no verdicts"; exit 1; }
# A restarted daemon must replay the journal on startup and report it.
"$SERVE" frame ping | "$SERVE" serve --stdio --journal "$OUT/ops.journal" \
    >/dev/null 2>"$OUT/ops.replay.err"
grep -q "journal replay" "$OUT/ops.replay.err" \
    || { echo "FAIL: restart did not report the journal replay"; cat "$OUT/ops.replay.err"; exit 1; }
echo "ok: journal round trip, HEALTH snapshot, prom + flight exports validate"

echo "== forensics: a torn journal tail degrades to a structured partial"
cp "$OUT/ops.journal" "$OUT/torn.journal"
SIZE=$(wc -c <"$OUT/torn.journal")
head -c "$((SIZE - 3))" "$OUT/torn.journal" >"$OUT/torn.tmp" && mv "$OUT/torn.tmp" "$OUT/torn.journal"
set +e
"$SERVE" journal inspect "$OUT/torn.journal" >"$OUT/torn.txt"
RC=$?
set -e
[ "$RC" = 1 ] || { echo "FAIL: torn journal inspect exited $RC, expected 1"; cat "$OUT/torn.txt"; exit 1; }
grep -q "corruption: " "$OUT/torn.txt" \
    || { echo "FAIL: torn journal not flagged as corrupt"; cat "$OUT/torn.txt"; exit 1; }
echo "ok: torn tail is flagged, intact prefix still replays"

echo "serve smoke passed"
