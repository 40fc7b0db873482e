#!/usr/bin/env bash
# Line counts the way ROADMAP and the PR records count them: per crate and in
# total, every crates/*/src/**/*.rs up to its first `#[cfg(test)]` (non-test
# lines); then the whole files under shims/, scripts/ and tests/ (the root's
# and the crates'). Usage: scripts/loc.sh [TREE] (default: this checkout).
cd "${1:-$(dirname "$0")/..}" || exit 1
for f in $(find crates -path '*/src/*' -name '*.rs'); do
    echo "$(echo "$f" | cut -d/ -f2) $(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")"
done | awk '{ c[$1] += $2; t += $2 } END { for (k in c) printf "%-9s %6d\n", k, c[k]; printf "%-9s %6d\n", "crates/", t }' | sort
for d in shims scripts "tests crates/*/tests"; do
    printf '%-9s %6d\n' "${d%% *}/" "$(find $d -type f ! -name Cargo.toml | xargs cat | wc -l)"
done
