#!/usr/bin/env bash
# Code lines per file: non-blank, non-comment lines outside every
# `#[cfg(test)]`-gated item (scripts/code_lines.awk) — the measure the
# simplicity issues quote.
#
#   ./scripts/loc.sh [FILE...]     (default: every crates/*/src/*.rs)
#
# A file that does not exist counts 0, so the same list can be measured
# on two commits when one of them deleted a file. With the default list,
# six more lines follow the total — the crates' integration tests, the
# paper benches, the root tests, the vendored stand-ins and the benchmark
# package, by the same measure, so a before/after count covers the whole
# repository; then the lint suppressions: `// qd-lint: allow(` comment
# lines in the files qd-lint scans by default (its roots, minus the
# `exclude` globs of qd-lint.toml's [lint] table). They are informational
# and never part of the total.
set -euo pipefail
cd "$(dirname "$0")/.."

code_lines() {
    local n=0
    if [ -f "$1" ]; then
        n=$(awk -f scripts/code_lines.awk "$1" | wc -l)
    fi
    echo "$n"
}

# Sum over every tracked-or-not .rs file under the given directories.
tree_lines() {
    local sum=0 f
    while IFS= read -r f; do
        sum=$((sum + $(code_lines "$f")))
    done < <(find "$@" -name '*.rs' -not -path '*/target/*' 2>/dev/null | sort)
    echo "$sum"
}

# Suppression comment lines in the files qd-lint scans by default.
lint_allows() {
    local excludes f g sum=0
    mapfile -t excludes < <(sed -n '/^\[lint\]/,/^\[/s/^exclude = \[\(.*\)\]/\1/p' qd-lint.toml \
        | tr -d '" ' | tr ',' '\n')
    while IFS= read -r f; do
        for g in "${excludes[@]}"; do
            # $g unquoted: it is a glob pattern.
            [[ $f == $g ]] && continue 2
        done
        sum=$((sum + $(grep -cE '^\s*// qd-lint: allow\(' "$f" || true)))
    done < <(find crates src examples tests -name '*.rs' 2>/dev/null | sort)
    echo "$sum"
}

whole_repo=
[ $# -gt 0 ] || { whole_repo=1; set -- crates/*/src/*.rs; }

total=0
for f in "$@"; do
    n=$(code_lines "$f")
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d total\n' "$total"
if [ -n "$whole_repo" ]; then
    printf '%6d crates/*/tests (not in the total)\n' "$(tree_lines crates/*/tests)"
    printf '%6d crates/bench (not in the total)\n' "$(tree_lines crates/bench)"
    printf '%6d tests/ (not in the total)\n' "$(tree_lines tests)"
    printf '%6d vendor/ (not in the total)\n' "$(tree_lines vendor)"
    printf '%6d qd-perf/ (not in the total)\n' "$(tree_lines qd-perf)"
    printf '%6d qd-lint: allow comment lines (not in the total)\n' "$(lint_allows)"
fi
