#!/usr/bin/env bash
# Paired parent-versus-change runs of the repo benchmark (choosing-metrics §8):
# build PARENT_REF and the working tree side by side, alternate which side
# runs first, feed every pair to `stint-benchmark agree`, and print per
# workload and end-to-end metric each side's median and quartiles, the
# change's relative difference and how many pairs it won.
#
# Usage: scripts/bench_pair.sh [--quick] PARENT_REF [N]
#   N        pairs per workload (default 10)
#   --quick  N=2 on every workload — the smoke scripts/perfgate.sh runs;
#            two pairs support no claim
#
# Both sides are exported (`git archive` of PARENT_REF; the tracked and
# untracked-but-not-ignored files of the working tree) under
# .bench_build/pair/ and are built and run at ONE path, .bench_build/pair/live,
# each renamed into it for the duration of a cargo call: the benchmark's
# recorded heap addresses — and with them history_mb — move with the binary's
# layout, and cargo hashes the directory of every path dependency into its
# symbol names, so one source built in two directories gets two layouts
# (.text differing by 1-2 KiB). Exits non-zero if any pair had a failed
# operation or a metric worse than its bound. The last line says whether the
# working tree's benchmark/ and BENCHMARK.json are PARENT_REF's, and names
# any path that is not: a benchmark build inside a checkout rewrites
# benchmark/Cargo.lock, and a change must leave those files as they are.

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [ "${1:-}" = "--quick" ]; then QUICK=1; shift; fi
PARENT_REF=${1:?usage: scripts/bench_pair.sh [--quick] PARENT_REF [N]}
N=${2:-10}
WORKLOADS=$(grep -o '{"name": "[a-z_0-9]*", "why"' BENCHMARK.json | cut -d'"' -f4)
METRICS=$(grep -o '{"name": "[a-z_0-9]*", "unit": "[A-Za-z]*", "better": "lower", "bound"' BENCHMARK.json | cut -d'"' -f4)
if [ "$QUICK" = 1 ]; then N=2; fi

WORK=$PWD/.bench_build/pair
rm -rf "$WORK"
mkdir -p "$WORK/parent" "$WORK/change" "$WORK/out"
git archive "$PARENT_REF" | tar -x -C "$WORK/parent"
# (A tracked file deleted in the working tree is listed but unreadable.)
git ls-files -co --exclude-standard -z \
    | tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -x -C "$WORK/change"

at() { # side cargo-args...: run cargo on that side's benchmark, at the shared path
    local rc=0
    mv "$WORK/$1" "$WORK/live"
    (cd "$WORK/live" && cargo "$2" --release --quiet --offline \
        --manifest-path benchmark/Cargo.toml "${@:3}") || rc=$?
    mv "$WORK/live" "$WORK/$1"
    return "$rc"
}

# The BENCHMARK.json command builds what it runs; build once up front so no
# measured run pays for it.
for side in parent change; do
    echo "== build $side"
    at "$side" build
done

# The layout check (see the header): where each binary's sections end, and
# how far into its 256 KiB `BitShadow` window the heap (the page after
# `.bss`, load base 0x555555554000 with ASLR off) therefore starts. Two
# sides in different windows can read different `history_mb` from identical
# detector behaviour; `layout: identical` says the change moved no section.
for side in parent change; do
    size -A "$WORK/$side/benchmark/target/release/stint-benchmark" | awk -v side="$side" '
        $1 ~ /^\.(text|data|bss)$/ { printf "%s %-5s size %8d addr %8d\n", side, $1, $2, $3 }
        $1 == ".bss" { end = $2 + $3 + 81920  # 0x555555554000 mod 256 KiB
            printf "%s heap base %d KiB into its window\n", side, int((end + 4095) / 4096) * 4 % 256 }'
done
sections() { # side -> "name size addr" of .text, .data, .bss
    size -A "$WORK/$1/benchmark/target/release/stint-benchmark" \
        | awk '$1 ~ /^\.(text|data|bss)$/ { print $1, $2, $3 }'
}
if [ "$(sections parent)" = "$(sections change)" ]; then
    echo "layout: identical"
else
    paste -d' ' <(sections parent) <(sections change) | awk '
        $1 != ".data" { printf "%s%s %+d", n++ ? ", " : "layout: differs (", $1, $5 - $2 }
        END { print ")" }'
fi

run_side() { # side workload pair
    at "$1" run -- run --workload "$2" \
        --out "$WORK/out/$1-$2-$3.json" >"$WORK/out/$1-$2-$3.log" 2>&1 \
        || { echo "FAIL: $1 run of $2 (pair $3); see $WORK/out/$1-$2-$3.log"; exit 1; }
}

value() { # file metric
    grep -o "\"$2\": {\"value\": [0-9.e+-]*" "$1" | head -1 | grep -o '[0-9.e+-]*$'
}

EXCESS=0
for i in $(seq 1 "$N"); do
    for w in $WORKLOADS; do
        if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do run_side "$side" "$w" "$i"; done
        # `agree` walks the whole catalogue; a one-workload set answers for
        # its own workload only.
        verdicts=$(at change run -- agree \
            "$WORK/out/parent-$w-$i.json" "$WORK/out/change-$w-$i.json" | grep " $w " || true)
        echo "-- pair $i $w"
        echo "$verdicts"
        # An exact count that merely differs is not an excess here: parent and
        # change are different binaries, and history_mb follows the layout.
        # It still has to stay within its bound.
        EXCESS=$((EXCESS + $(echo "$verdicts" | awk '
            !/^EXCESS/ { next }
            !/exact metric differs/ { n++; next }
            { match($0, /worse by [+-][0-9.]+%/); worse = substr($0, RSTART + 9, RLENGTH - 10)
              match($0, /bound [0-9.]+%/); bound = substr($0, RSTART + 6, RLENGTH - 7)
              if (worse + 0 > bound + 0) n++ }
            END { print n + 0 }')))
    done
done

# Quartiles by linear interpolation over the sorted values on stdin.
quartiles() {
    sort -g | awk '{v[NR]=$1} END {
        for (q = 1; q <= 3; q++) {
            pos = 1 + (NR - 1) * q / 4; lo = int(pos); hi = (lo < NR) ? lo + 1 : lo
            printf("%s%.6g", (q > 1) ? " " : "", v[lo] + (v[hi] - v[lo]) * (pos - lo))
        }
    }'
}

echo
echo "== $N pair(s) per workload, parent $PARENT_REF; every metric: lower is better"
printf '%-15s %-12s %-34s %-34s %8s %6s\n' workload metric \
    'parent median [p25, p75]' 'change median [p25, p75]' 'change' 'wins'
for w in $WORKLOADS; do
    for m in $METRICS; do
        wins=0
        : >"$WORK/out/p.col"; : >"$WORK/out/c.col"
        for i in $(seq 1 "$N"); do
            p=$(value "$WORK/out/parent-$w-$i.json" "$m")
            c=$(value "$WORK/out/change-$w-$i.json" "$m")
            echo "$p" >>"$WORK/out/p.col"; echo "$c" >>"$WORK/out/c.col"
            wins=$((wins + $(awk -v p="$p" -v c="$c" 'BEGIN { print (c < p) ? 1 : 0 }')))
        done
        read -r p25 p50 p75 <<<"$(quartiles <"$WORK/out/p.col")"
        read -r c25 c50 c75 <<<"$(quartiles <"$WORK/out/c.col")"
        delta=$(awk -v p="$p50" -v c="$c50" 'BEGIN { printf "%+.1f%%", (c / p - 1) * 100 }')
        printf '%-15s %-12s %-34s %-34s %8s %6s\n' "$w" "$m" \
            "$p50 [$p25, $p75]" "$c50 [$c25, $c75]" "$delta" "$wins/$N"
    done
done
echo "bench_pair: $EXCESS excess(es) over all pairs"
edited=$({ git diff --name-only "$PARENT_REF" -- benchmark BENCHMARK.json
    git ls-files -o --exclude-standard -- benchmark BENCHMARK.json; } | sort -u | paste -sd' ' -)
echo "benchmark files: ${edited:+differ from $PARENT_REF: }${edited:-identical to $PARENT_REF}"
[ "$EXCESS" = 0 ]
