#!/usr/bin/env bash
# Line counts the way ROADMAP and the PR records count them: per crate and in
# total, every crates/*/src/**/*.rs up to its first `#[cfg(test)]` (non-test
# lines); then the whole files under shims/ and scripts/; then the test code:
# the root tests/ (with tests/common), the crates' tests/, and `cfg(test)`,
# every crates/*/src/**/*.rs from its first `#[cfg(test)]` on.
# Usage: scripts/loc.sh [TREE] (default: this checkout).
cd "${1:-$(dirname "$0")/..}" || exit 1
srcs=$(find crates -path '*/src/*' -name '*.rs')
for f in $srcs; do
    echo "$(echo "$f" | cut -d/ -f2) $(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")"
done | awk '{ c[$1] += $2; t += $2 } END { for (k in c) printf "%-15s %6d\n", k, c[k]; printf "%-15s %6d\n", "crates/", t }' | sort
for d in shims scripts tests "crates/*/tests"; do
    printf '%-15s %6d\n' "$d/" "$(find $d -type f ! -name Cargo.toml | xargs cat | wc -l)"
done
printf '%-15s %6d\n' "cfg(test)" "$(for f in $srcs; do
    awk '/#\[cfg\(test\)\]/ { t = 1 } t { n++ } END { print n + 0 }' "$f"
done | awk '{ t += $1 } END { print t + 0 }')"
