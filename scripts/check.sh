#!/usr/bin/env bash
# Pre-commit gate: formatting, lints, docs, full test run, bench smokes.
#
#   ./scripts/check.sh
#
# Runs offline (the workspace vendors its dependencies; see vendor/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check (workspace)"
cargo fmt -- --check

echo "== cargo clippy (workspace, -D warnings)"
cargo clippy --offline --workspace --no-deps --all-targets -- -D warnings

echo "== cargo doc (workspace, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== qd-lint (workspace invariants, --deny)"
cargo run --offline -q -p qd-lint -- --deny

echo "== qd-lint (fixture corpus must FAIL the gate)"
if (cd crates/lint && cargo run --offline -q -p qd-lint -- --deny --config fixtures/qd-lint.toml fixtures >/dev/null 2>&1); then
    echo "qd-lint accepted the violation fixtures — the gate is broken" >&2
    exit 1
fi

echo "== qd-lint (interprocedural findings carry witness chains)"
(cd crates/lint && cargo run --offline -q -p qd-lint -- --config fixtures/qd-lint.toml fixtures || true) \
    | grep -q 'helpers/math.rs:9: \[panic-safety\].*\[via ' \
    || { echo "reachability finding lost its call chain" >&2; exit 1; }

echo "== qd-lint (--graph dot output matches the pinned fixture byte-for-byte)"
(cd crates/lint && cargo run --offline -q -p qd-lint -- --graph dot --config fixtures/qd-lint.toml fixtures/graph) \
    | diff -u crates/lint/fixtures/graph.dot - \
    || { echo "call-graph DOT drifted from crates/lint/fixtures/graph.dot" >&2; exit 1; }

echo "== cargo test"
cargo test --offline --workspace -q

echo "== code lines (scripts/loc.sh; informational, never a gate)"
./scripts/loc.sh | tail -n 1

echo "== journal kill-and-resume (release, every state boundary)"
cargo test --offline --release -p qd-core --test journal_resume -q

echo "== serve kill-and-resume (release, every boundary kind + full Vfs crash matrix)"
cargo test --offline --release -p qd-serve --test chaos -q

echo "== crash-point matrix (release, kill at every Vfs op, stride 1)"
cargo test --offline --release -p qd-core --test crash_matrix -q

echo "== journal format corpus (release: pinned v1/v2 fixtures, corruption corpus, O(1) appends)"
cargo test --offline --release -p qd-core --test journal_format -q

echo "== poison-request matrix (release: quarantine exactness, kill-at-every-boundary, inertness)"
cargo test --offline --release -p qd-serve --test poison -q

echo "== isolation properties (release: ladder monotonicity, bisection order-insensitivity)"
cargo test --offline --release -p qd-serve --test isolation_props -q

echo "== chaos determinism + shrink + fixture replay (release, qd-chaos)"
cargo test --offline --release -p qd-chaos -q

echo "== whole-system chaos gate (release, pinned seed, 25 schedules, all invariants)"
cargo run --offline --release -q -p qd-cli -- chaos --seed 7 --runs 25

echo "== qd-perf smoke (the unmodified benchmark harness built against these crates; each replica must end on the CLI's model bits)"
bash qd-perf/run.sh --smoke | tee /dev/stderr | grep -x 'smoke: ok' >/dev/null \
    || { echo "qd-perf --smoke did not end 'smoke: ok' — the benchmark's pinned library surface broke" >&2; exit 1; }

echo "== float-order gate (traced qd-perf runs must end on the model digests qd-perf/README.md pins)"
# Every kernel keeps one reduction order (DESIGN.md §4.6), so these digests
# only move when a change reorders a float sum — which then needs the
# re-pin policy of ROADMAP item 2, not a silent pass.
while read -r workload digest; do
    bash qd-perf/run.sh --workload "$workload" --seed 11 --trace 1 \
        | grep -x "  model_digest $digest" >/dev/null \
        || { echo "qd-perf $workload (seed 11) did not print model_digest $digest — a kernel reordered a float sum" >&2; exit 1; }
done <<'DIGESTS'
train-distill 185d83271a152c63
request-stream 4027121546bddd40
DIGESTS

echo "== chaos bench (smoke mode; refreshes BENCH_chaos.json)"
cargo bench --offline -p qd-bench --bench chaos -- --test

echo "== tail bench (smoke mode, 30% dropout)"
cargo bench --offline -p qd-bench --bench tail -- --test

echo "== divergence bench (smoke mode, 50x ascent spike)"
cargo bench --offline -p qd-bench --bench divergence -- --test

echo "== serve bench (smoke mode, crash-mid-batch resume; refreshes BENCH_serve.json)"
cargo bench --offline -p qd-bench --bench serve -- --test

echo "== storage bench (smoke mode, O(1) append contract; refreshes BENCH_storage.json)"
cargo bench --offline -p qd-bench --bench storage -- --test

echo "all checks passed"
