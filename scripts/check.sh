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

echo "== release build targets x86-64-v3 (.cargo/config.toml)"
# The kernels' register tiles are sized for 256-bit lanes (DESIGN.md §4.6).
# A lost config, or a RUSTFLAGS that replaces it (even an empty one), builds
# the same bits at about 1.5x the time; fail here, not in a benchmark.
if [ "$(uname -m)" = x86_64 ]; then
    cargo rustc --offline --release -q -p qd-tensor --lib -- --print cfg \
        | grep -x 'target_feature="avx2"' >/dev/null \
        || { echo "the release build does not target x86-64-v3: is .cargo/config.toml there, and RUSTFLAGS unset?" >&2; exit 1; }
fi

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

# Does FILE's code match `grep ARGS...`? Code is what scripts/loc.sh
# counts: the lines above the first #[cfg(test)], comment lines skipped.
code_matches() {
    local f=$1
    shift
    # Not `grep -q`: exiting at the first match breaks the pipe, which
    # pipefail would report as no match.
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -v '^\s*//' | grep "$@" >/dev/null
}

echo "== recording tape (Tape::new) opened by gradient matching alone"
# Only a gradient that is differentiated again needs the recording tape,
# and only gradient matching differentiates one; every other product path
# runs on Tape::first_order or Tape::inference.
recording=
for f in crates/*/src/*.rs; do
    [[ $f == crates/autograd/* ]] && continue
    if code_matches "$f" -F 'Tape::new()'; then
        recording+="$f "
    fi
done
[ "$recording" = "crates/distill/src/matching.rs " ] \
    || { echo "Tape::new() is opened outside gradient matching: ${recording:-none} — a new second-order caller blocks ROADMAP item 4 (forward-over-reverse matching, Tape::grad test-only); use Tape::first_order or Tape::inference" >&2; exit 1; }

echo "== one divergence guard, one circuit breaker, one builder of a simulated network"
# The guard's rollback-and-halve loop lives in qd-core's unit engine
# alone, and the CLOSED/OPEN/HALF-OPEN state in qd-fed's ClientHealth
# alone (qd-serve's tenant breakers are a tenant-indexed ClientHealth).
# A second copy of either is a second place the pinned bits can drift,
# and a second thing the divergence bench might be measuring instead.
# Training runs on the loopback transport: the chaos harness's `net_drop`
# environment is the only library code that builds a SimNet, so a
# checkpoint, a flag or a config field cannot route training through one
# again and break bit-for-bit resume. A journaled deployment is opened
# (the `.prev` fallback) and closed (the unchanged-or-not compare) by
# qd-serve's Deployment alone, so the CLI and the chaos lifetimes it
# kills run the same sequence.
while read -r owner flag pattern; do
    found=
    for f in crates/*/src/*.rs; do
        if code_matches "$f" "$flag" -e "$pattern"; then
            found+="$f "
        fi
    done
    [ "$found" = "$owner " ] \
        || { echo "'$pattern' is in ${found:-no file}, expected in $owner alone — drive the one copy instead of writing another" >&2; exit 1; }
done <<'ONE_COPY'
crates/core/src/lifecycle.rs -F lr_halvings += 1
crates/fed/src/health.rs -w half_open
crates/chaos/src/scenario.rs -F SimNet::new(
crates/serve/src/deployment.rs -F Checkpoint::load_with_fallback_on(
crates/serve/src/deployment.rs -F .same_bits(
ONE_COPY

echo "== cargo test"
cargo test --offline --workspace -q

echo "== examples (release; each must exit 0)"
# Clippy compiles the examples; only running them catches one that panics.
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    cargo run --offline --release -q --example "$name" >/dev/null \
        || { echo "example $name exited non-zero" >&2; exit 1; }
done

echo "== code lines (scripts/loc.sh; informational, never a gate)"
./scripts/loc.sh | tail -n 7

echo "== durable format corpus (release: pinned journal-v6 + checkpoint-v4 fixtures read bit-for-bit and rewritten byte-for-byte, typed refusal of journal v1-v5 and checkpoint v1-v3/JSON inputs, back-reference + derived-record round-trip oracle, corruption corpus incl. sealed-but-inconsistent checkpoints, O(1) appends, one stored snapshot and <= 25 KB per unlearn, each synthetic sample stored once per checkpoint)"
cargo test --offline --release -p qd-core --test journal_format -q

echo "== isolation properties (release: ladder monotonicity, bisection order-insensitivity)"
cargo test --offline --release -p qd-serve --test isolation_props -q

# The crash gate — every Vfs op and every journal boundary of the four
# named workloads, both front doors, all invariants — is
# crates/chaos/tests/exhaustive.rs, part of the workspace run above at
# every schedule; the release binary's serving code is driven by the
# pinned sweep below.
echo "== whole-system chaos gate (release, pinned seed, 25 schedules, all invariants)"
cargo run --offline --release -q -p qd-cli -- chaos --seed 7 --runs 25

echo "== a re-served deployment is left untouched (release binary: the identical serve command line writes, renames and removes nothing)"
# A re-invocation over a fully served history reads one snapshot and
# finds nothing to do (DESIGN.md §5i): every file keeps its bytes and its
# mtime, which any write or tmp + rename would move.
noop="$(mktemp -d)"
cli() { cargo run --offline --release -q -p qd-cli -- "$@"; }
cli train --out "$noop/svc.json" --clients 2 --samples 120 --rounds 2 --steps 2 --scale 20 \
    --iid --seed 3 >/dev/null
serve_line=(serve --ckpt "$noop/svc.json" --tenants 2 --arrival-requests 3 --seed 5
    --stats-out "$noop/svc.json.stats")
cli "${serve_line[@]}" >/dev/null
listing() { find "$noop" -type f -printf '%P %s %T@ ' -exec sha256sum {} \; | sort; }
before="$(listing)"
again="$(cli "${serve_line[@]}")"
grep -q '^checkpoint unchanged at ' <<<"$again" \
    || { echo "a no-op serve did not report its checkpoint unchanged: $again" >&2; exit 1; }
[ "$(listing)" = "$before" ] \
    || { echo "a no-op serve changed the deployment's files:" >&2; diff <(echo "$before") <(listing) >&2; exit 1; }
rm -r "$noop"

echo "== qd-perf unit tests (the benchmark's own suite, built against these crates)"
# qd-perf/ is frozen between benchmark PRs, so a library change that
# breaks what its tests build (a record literal, a signature) fails here.
# The suite's smoke test is the smoke step below, with its retry.
cargo test --offline -q --manifest-path qd-perf/Cargo.toml --bins

echo "== float-order gate + exact-count gates (traced qd-perf runs must end on the model digests qd-perf/README.md pins; a journal record and a checkpoint must stay binary-sized; a step must stay on the first-order tape, off the patch matrix and free of layout and ReLU/pool nodes)"
# Runs before the smoke below, so that the smoke's CPU-tick artefact
# cannot stop this gate from running.
# Every kernel keeps one reduction order (DESIGN.md §4.6), so these digests
# only move when a change reorders a float sum — which then needs the
# re-pin policy of ROADMAP item 2, not a silent pass. The same
# request-stream output carries two exact byte counts (`#` metrics): a
# change that quietly re-inflates a journal record or the checkpoint
# (DESIGN.md "Durable formats": 111 689 and 1 968 430 bytes as decimal
# text; the checkpoint 395 044 while it stored each synthetic sample twice,
# 271 752 since) fails here. The journal probe re-appends one record, so since
# journal v5 it measures a back-reference (269 bytes): a change that stops
# writing a repeated snapshot once fails the 296-byte ceiling. A record
# carrying its snapshot inline is 22 335 bytes, and since journal v6 an
# unlearn stores one (its UNLEARNED record is a digest); the
# journal_format run above gates one stored snapshot and <= 25 KB per
# unlearn. These runs also fail a change that quietly routes training, ascent or
# recovery steps back onto the recording tape's chains, a convolution
# back through `im2col`/`col2im`, or a step that re-materialises a block's
# ReLU output, pooled or unpooled map, or a rows copy of a convolution's
# upstream (DESIGN.md §4.7): a request allocates 125 954 670 bytes —
# 269 604 319 with those nodes, 471 990 615 with the patch matrix as well,
# 1 036 408 712 on the recording tape — and a train-distill run
# 952 509 332, 1 643 507 152 with those nodes and 2 529 464 016 with the
# patch matrix. The ceilings are those measured counts plus 10 %; with one
# node per ConvNet block the two read 128 974 145 and 987 989 079. A
# reopen of the served history decodes one snapshot, not all of them
# (DESIGN.md §5m): it allocates 4 702 669 bytes, and 8 393 789 when the
# journal's open decoded every stored and back-referenced model.
while read -r workload digest; do
    report="$(bash qd-perf/run.sh --workload "$workload" --seed 11 --trace 1 </dev/null)"
    grep -x "  model_digest $digest" <<<"$report" >/dev/null \
        || { echo "qd-perf $workload (seed 11) did not print model_digest $digest — a kernel reordered a float sum" >&2; exit 1; }
    while read -r on metric ceiling; do
        [ "$on" = "$workload" ] || continue
        awk -v m="$metric" -v max="$ceiling" '$1 == m { seen = 1; if ($2 + 0 > max) bad = 1 } END { exit !(seen && !bad) }' <<<"$report" \
            || { echo "qd-perf $workload (seed 11): $metric is missing or above $ceiling bytes — durable state re-inflated, steps back on the recording tape, a step holding its layout or ReLU/pool nodes again, or a reopen decoding the whole history" >&2; exit 1; }
    done <<'BYTES'
request-stream core.journal.bytes_per_record 296
request-stream core.ckpt.bytes 299000
request-stream alloc.bytes_per_op 139000000
train-distill alloc.bytes_per_op 1048000000
reopen-history alloc.bytes_per_op 5173000
BYTES
done <<'DIGESTS'
train-distill 185d83271a152c63
request-stream 4027121546bddd40
serve-mixed 075781b4b7e93219
reopen-history 6d6f94e01d9b30cb
DIGESTS

echo "== qd-perf smoke (the unmodified benchmark harness built against these crates; each replica must end on the CLI's model bits)"
# One tolerated flake, retried: the harness reads its own CPU time from
# /proc/self/stat in 10 ms ticks, and the traced smoke-scale
# reopen-history span is 6-10 ms, so about one run in three sees zero
# ticks and reports `proc.sys_share was not emitted`. qd-perf/ is frozen
# between benchmark PRs; any *other* FAILED line still fails the gate at
# once.
smoke_ok=
for attempt in 1 2 3 4 5; do
    smoke="$(bash qd-perf/run.sh --smoke </dev/null || true)"
    printf '%s\n' "$smoke" >&2
    if grep -x 'smoke: ok' <<<"$smoke" >/dev/null; then
        smoke_ok=1
        break
    fi
    [ "$(grep '^  FAILED' <<<"$smoke" || true)" = '  FAILED proc.sys_share was not emitted' ] || break
    echo "qd-perf --smoke attempt $attempt: only the CPU-tick artefact failed; retrying" >&2
done
[ -n "$smoke_ok" ] \
    || { echo "qd-perf --smoke did not end 'smoke: ok' — the benchmark's pinned library surface broke" >&2; exit 1; }

echo "== chaos bench (smoke mode, Byzantine aggregators)"
cargo bench --offline -p qd-bench --bench chaos -- --test

echo "== divergence bench (smoke mode: QuickDrop under a 50x ascent spike, unguarded and under the guard the CLI ships)"
cargo bench --offline -p qd-bench --bench divergence -- --test

echo "== serve bench (smoke mode; refreshes BENCH_serve.json)"
cargo bench --offline -p qd-bench --bench serve -- --test

echo "all checks passed"
