#!/usr/bin/env bash
# Builds the two binaries the benchmark needs — `quickdrop-cli` from the
# repository's workspace and `qd-perf` from this package — into one target
# directory, then runs the harness with the given arguments.
set -euo pipefail
# A relative CARGO_TARGET_DIR means relative to where the caller stands.
target="$(realpath -m "${CARGO_TARGET_DIR:-$(dirname "${BASH_SOURCE[0]}")/../target}")"
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="$target"
# The harness's in-process replica runs under the malloc settings its
# children get (src/child.rs, MALLOC_ENV, which says why); keep them equal.
export MALLOC_MMAP_THRESHOLD_=1073741824 MALLOC_TRIM_THRESHOLD_=4294967296
# Build chatter goes to stderr: stdout belongs to the harness's report.
cargo build --offline --release --quiet -p qd-cli 1>&2
cargo build --offline --release --quiet --manifest-path qd-perf/Cargo.toml 1>&2
exec "$target/release/qd-perf" "$@"
