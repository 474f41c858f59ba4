#!/usr/bin/env bash
# Code lines per file: non-blank, non-comment lines above the first
# `#[cfg(test)]` — the measure the simplicity issues quote.
#
#   ./scripts/loc.sh [FILE...]     (default: every crates/*/src/*.rs)
#
# A file that does not exist counts 0, so the same list can be measured
# on two commits when one of them deleted a file.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates/*/src/*.rs

total=0
for f in "$@"; do
    n=0
    if [ -f "$f" ]; then
        n=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -v '^\s*//' | grep -cv '^\s*$' || true)
    fi
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d total\n' "$total"
