#!/usr/bin/env sh
# CI entry point: the tier-1 verification plus the hermeticity gate.
#
# The workspace must build and test with NO network and NO registry
# dependencies — every dependency is a path dependency inside this repo.
# `--offline --locked` makes cargo fail loudly if that ever regresses,
# and the Cargo.lock grep proves no registry source snuck back in.

set -eu

cd "$(dirname "$0")/.."

echo "== hermeticity: offline, locked build =="
cargo build --offline --locked --workspace

echo "== hermeticity: Cargo.lock has no registry sources =="
if grep -q 'source = ' Cargo.lock; then
    echo "ERROR: Cargo.lock references an external source:" >&2
    grep 'source = ' Cargo.lock >&2
    exit 1
fi

echo "== tier-1: release build =="
cargo build --release --offline

# Every intra-doc link must resolve to a public item: with rustdoc's
# warnings as errors, a dead or private link fails here instead of
# rendering as plain text.
echo "== rustdoc: every public doc link resolves (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# perfbench is a standalone package (its own workspace) compiled against
# the scheduler's public API; building it here makes an API change that
# breaks the benchmark fail CI instead of the next perf run. Its tests are
# not run here (see perfbench/README.md).
echo "== benchmark harness builds against the current API =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# One short run of a benchmark workload through the benchmark's own
# correctness gate: every round must reproduce the workload's pinned
# bytes, and none may fail. The result object is the last stdout line,
# left in $result. The run lasts $2 seconds (default 1).
bench_gate() {
    result=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seconds "${2:-1}" --trace 0 | tail -n 1)
    echo "$result"
    case "$result" in
        *'"correct":true'*) ;;
        *) echo "ERROR: $1 rounds did not reproduce their pinned bytes" >&2; exit 1 ;;
    esac
    case "$result" in
        *'"failed":0'[!0-9]*) ;;
        *) echo "ERROR: $1 reported failed rounds" >&2; exit 1 ;;
    esac
}

# The pinned digest of the 47 training runs behind Table II, the grid,
# Fig 9, Fig 15, Fig 16 and Table IV — the fabric allocator under
# contention and the Falcon port series included.
echo "== paper_sweep digest through the benchmark (1 s) =="
bench_gate paper_sweep

# The same gate on the cluster loop: every rack_faults round must
# reproduce the pinned digest of its 4-chassis replay with preemption,
# defrag and a 40-event fault plan, a shape no workspace golden has.
echo "== rack_faults digest through the benchmark (1 s) =="
bench_gate rack_faults

# And on the 128-GPU PAI-scale replay: every pai_mixed round must
# reproduce crates/bench/golden/pai_magnitude.json through the
# benchmark's warm-cache path, not only through `repro scenario`.
#
# The same run is the replay engine's one host-time gate. Its median
# round, scaled to the reference host's speed, must stay within 0.21 s:
# the semantics the engine replaced (a full conservation audit every
# event, and every serving micro event through the global loop) took
# 1.07 s a round, so the budget is the old >= 5x bound over them. Today's
# engine takes about 0.1 s; one that held every serving epoch (the
# per-micro-event engine) takes about 0.6 s. Three seconds give 15-30
# rounds for the median.
echo "== pai_mixed rounds against the pai_magnitude golden, round_s budget 0.21 s (3 s) =="
bench_gate pai_mixed 3
round_s=$(printf '%s\n' "$result" | sed -n 's/.*"round_s":{"value":\([0-9.eE+-]*\)[,}].*/\1/p')
echo "pai_mixed median round ${round_s:-?} s at reference speed (budget 0.21 s)"
if ! awk -v r="$round_s" 'BEGIN { exit !(r != "" && r + 0 <= 0.21) }'; then
    echo "ERROR: the pai_magnitude replay ran over its 0.21 s round budget" >&2
    exit 1
fi

echo "== tier-1: tests =="
cargo test -q --offline

echo "== workspace tests (all property + golden suites) =="
cargo test -q --offline --workspace

# The mutant catalogue: every entry's one-hunk bug, applied to a throwaway
# copy of the tree under target/mutants, must fail the test the entry
# names (16 s with target/mutants kept from an earlier run, 30 s from
# scratch; the two scheduler entries rebuild that crate's test binary).
echo "== mutant catalogue: every mutant killed =="
sh scripts/mutants.sh

# The conservation audit is an `assert!` that also runs in release
# builds, where `repro` and perfbench replay, so its breach tests run
# there too: each corrupts one invariant of a valid replay state and
# requires the audit to panic naming it. A check weakened to
# `debug_assert!` passes the debug run above and fails here.
echo "== conservation-audit breach tests in release =="
cargo test -q --release --offline -p scheduler --lib breach_

# One matrix pass runs every checked-in scenario — training, faults,
# serving, and the multi-chassis scale-out specs (cluster_scale32/64/128,
# up to 8 chassis / 128 GPUs). `repro cluster|faults|serve` are aliases
# for this same path over the *_policies.json files it already covers,
# and one test binary guards every pinned golden through
# testkit::check_scenario_golden. The matrix warms every scenario's
# probe keys once, then replays one job per (scenario, policy) pair;
# `--jobs 2` runs two such replays at a time and spreads the warm. No
# replay fans out inside itself.
echo "== scenario-matrix smoke (every scenarios/*.json, 2 parallel workers) =="
cargo run --release --offline -p bench --bin repro -- scenario-matrix scenarios --jobs 2

# A misspelled key must stop the replay, not replay another experiment:
# "fault" for "faults" would otherwise run the fault study fault-free.
echo "== misspelled scenario key is rejected (cluster_faults, \"fault\") =="
sed 's/"faults":/"fault":/' scenarios/cluster_faults.json > target/typo_scenario.json
if cargo run --quiet --release --offline -p bench --bin repro -- \
    scenario target/typo_scenario.json > /dev/null 2> target/typo_scenario.err; then
    echo "ERROR: a scenario with a misspelled key replayed instead of failing" >&2
    exit 1
fi
cat target/typo_scenario.err
if ! grep -q '"fault"' target/typo_scenario.err; then
    echo "ERROR: the rejection does not name the misspelled key" >&2
    exit 1
fi

# A request stream longer than the per-service cap (200,000 requests) must
# stop the replay naming the service, not replay a stream cut short: one
# service at 1,000,000 rps over a 1 s window asks for five times the cap.
echo "== request stream over the per-service cap is rejected (service 7, 1,000,000 rps) =="
over=target/over_cap
rm -rf "$over"
mkdir -p "$over"
cat > "$over/over_cap.json" <<'SPEC'
{
  "name": "over_cap",
  "trace": {"kind": "jobs", "name": "no-jobs", "jobs": []},
  "services": [
    {"id": 7, "tenant": 0, "benchmark": "MobileNetV2", "slice": 1, "slo_ns": 60000000,
     "rate_rps": 1000000, "arrivals": "poisson", "start_ns": 0, "duration_ns": 1000000000,
     "max_batch": 8, "max_wait_ns": 25000000, "min_replicas": 1, "max_replicas": 3}
  ],
  "policies": ["slo-aware-pack"]
}
SPEC
status=0
PROBE_CACHE="$over/probe_cache.json" cargo run --quiet --release --offline -p bench --bin repro -- \
    scenario "$over/over_cap.json" > /dev/null 2> "$over/stderr" || status=$?
cat "$over/stderr"
if [ "$status" -ne 2 ] || ! grep -q 'service 7' "$over/stderr"; then
    echo "ERROR: an over-cap request stream did not exit 2 naming service 7 (exit $status)" >&2
    exit 1
fi

# Probe prices do not depend on the rack shape, so one persisted cache
# serves every topology: after a 2-chassis run and a 1-chassis matrix
# pass on the same $PROBE_CACHE, a second 2-chassis run probes nothing.
echo "== one persisted probe cache across rack shapes (cluster_scale32, cluster_fifo) =="
cargo build --quiet --release --offline -p bench --bin repro
shared=target/shared_cache
rm -rf "$shared"
mkdir -p "$shared"
for step in "scenario scenarios/cluster_scale32.json" \
    "scenario-matrix scenarios/cluster_fifo.json" \
    "scenario scenarios/cluster_scale32.json"; do
    # shellcheck disable=SC2086 # $step is a subcommand and its file
    PROBE_CACHE="$shared/probe_cache.json" target/release/repro $step \
        > /dev/null 2> "$shared/stderr"
    cat "$shared/stderr"
done
if ! grep -q ' 0 probes run' "$shared/stderr"; then
    echo "ERROR: the second cluster_scale32 run re-probed prices the shared cache holds" >&2
    exit 1
fi

# A matrix whose scenarios all price at one probe_iters keeps its prices
# in the persisted cache at that count: a directory holding only
# cluster_scale32 at probe_iters 2, run twice on one $PROBE_CACHE, loads
# all 31 prices the second time and probes nothing.
echo "== matrix persists prices at its scenarios' probe_iters (cluster_scale32 at 2, twice) =="
iters=target/matrix_iters
rm -rf "$iters"
mkdir -p "$iters/specs"
sed 's/"probe_iters": [0-9]*/"probe_iters": 2/' scenarios/cluster_scale32.json \
    > "$iters/specs/cluster_scale32.json"
if cmp -s scenarios/cluster_scale32.json "$iters/specs/cluster_scale32.json"; then
    echo "ERROR: cluster_scale32.json no longer sets probe_iters; the copy would run at the default" >&2
    exit 1
fi
for _ in 1 2; do
    PROBE_CACHE="$iters/probe_cache.json" target/release/repro scenario-matrix "$iters/specs" \
        > /dev/null 2> "$iters/stderr"
    cat "$iters/stderr"
done
if ! grep -q ' 31 entries loaded, 0 probes run' "$iters/stderr"; then
    echo "ERROR: the second matrix run did not reuse the prices its first run priced" >&2
    exit 1
fi

# An inadmissible scenario stops a matrix before any replay: a job that
# asks for 16 GPUs under the default 12-GPU tenant quota must exit 2
# naming its scenario, with no table printed for the valid one.
echo "== inadmissible scenario stops the matrix (quota breach next to cluster_fifo) =="
bad=target/bad_matrix
rm -rf "$bad"
mkdir -p "$bad"
cp scenarios/cluster_fifo.json "$bad/"
cat > "$bad/quota_breach.json" <<'SPEC'
{
  "name": "quota_breach",
  "trace": {"kind": "jobs", "name": "one-wide-job", "jobs": [
    {"id": 1, "tenant": 0, "benchmark": "resnet50", "gpus": 16, "min_gpus": 16,
     "arrival_ns": 0, "iters": 10}
  ]},
  "policies": ["fifo-first-fit"]
}
SPEC
status=0
PROBE_CACHE="$bad/probe_cache.json" target/release/repro scenario-matrix "$bad" \
    > "$bad/stdout" 2> "$bad/stderr" || status=$?
cat "$bad/stderr"
if [ "$status" -ne 2 ] || ! grep -q '^repro: quota_breach: job 1' "$bad/stderr" \
    || [ -s "$bad/stdout" ]; then
    echo "ERROR: the matrix did not stop with exit 2 naming quota_breach before any table" >&2
    exit 1
fi

# The preemption study exercised on its own: checkpoint preemption +
# migration defrag must replay cleanly through the CLI path too, not
# just inside the matrix fan-out. It has one policy, so `--jobs 2` only
# spreads its probe warm.
echo "== priority-scenario smoke (cluster_priority, 2 workers) =="
cargo run --release --offline -p bench --bin repro -- scenario scenarios/cluster_priority.json --jobs 2

# The production-scale replay (10k jobs + 60 services, ~188k trace
# events) must stay interactive in release mode: the optimized engine
# replays it in well under a second, so a 60-second wall-clock budget
# only trips if the event loop regresses by more than an order of
# magnitude. POSIX sh, whole seconds — coarse on purpose. One policy, so
# `--jobs 2` only spreads the probe warm; the replay itself is serial.
echo "== production-scale replay under wall-clock budget (pai_magnitude, 2 workers) =="
pai_start=$(date +%s)
cargo run --release --offline -p bench --bin repro -- scenario scenarios/pai_magnitude.json --jobs 2
pai_elapsed=$(( $(date +%s) - pai_start ))
echo "pai_magnitude replayed in ${pai_elapsed}s (budget 60s)"
if [ "$pai_elapsed" -gt 60 ]; then
    echo "ERROR: pai_magnitude replay took ${pai_elapsed}s > 60s budget" >&2
    exit 1
fi

# The replay engine's correctness at full audit: a copy of pai_magnitude
# that runs the conservation audit at every event (`audit_every` 1) must
# print the golden's bytes, so amortized auditing hides no breach and
# changes no byte of the PAI-scale replay.
echo "== pai_magnitude with an audit at every event matches its golden =="
cargo build --quiet --release --offline -p bench --bin repro
gate=target/replay_gate
rm -rf "$gate"
mkdir -p "$gate"
sed 's/"audit_every": [0-9]*/"audit_every": 1/' scenarios/pai_magnitude.json > "$gate/audit.json"
if cmp -s scenarios/pai_magnitude.json "$gate/audit.json"; then
    echo "ERROR: pai_magnitude.json no longer sets audit_every > 1;" >&2
    echo "the full-audit replay would repeat the pinned one" >&2
    exit 1
fi
if ! PROBE_CACHE="$gate/probe_cache.json" target/release/repro scenario "$gate/audit.json" \
    --jobs 1 > "$gate/audit.out" 2> "$gate/stderr"; then
    cat "$gate/stderr" >&2
    exit 1
fi
if ! cmp -s "$gate/audit.out" crates/bench/golden/pai_magnitude.json; then
    echo "ERROR: pai_magnitude at audit_every 1 differs from crates/bench/golden/pai_magnitude.json" >&2
    exit 1
fi

# The policy search exercised end to end at its frozen provenance:
# the full-budget search over the default portfolio must reproduce the
# checked-in tuned artifact byte-for-byte at 2 workers (worker-count
# independence is what makes this guard meaningful), and stay well
# inside an interactive wall-clock budget.
echo "== policy-search smoke + frozen-artifact guard (autotune, 2 workers) =="
at_start=$(date +%s)
cargo run --release --offline -p bench --bin repro -- \
    autotune scenarios/portfolio_default --budget 96 --seed 7 --jobs 2 \
    > target/tuned_ci.json
at_elapsed=$(( $(date +%s) - at_start ))
echo "autotune searched in ${at_elapsed}s (budget 60s)"
if [ "$at_elapsed" -gt 60 ]; then
    echo "ERROR: autotune took ${at_elapsed}s > 60s budget" >&2
    exit 1
fi
if ! cmp -s target/tuned_ci.json crates/bench/golden/tuned_default.json; then
    echo "ERROR: tuned artifact drifted from crates/bench/golden/tuned_default.json;" >&2
    echo "if the portfolio or policy engine changed intentionally, refreeze it:" >&2
    echo "  repro autotune scenarios/portfolio_default --budget 96 --seed 7" >&2
    diff target/tuned_ci.json crates/bench/golden/tuned_default.json >&2 || true
    exit 1
fi

echo "== byte-determinism guard: pinned scenario goldens still match =="
# Guards all seven frozen goldens, including the pai_magnitude summary
# report that pins the optimized replay engine's semantics, the
# cluster_priority report that pins the preemption engine's decisions,
# and cluster_crossed, which fires every gang mechanism under one policy.
cargo test -q --offline -p bench --test scenario_goldens

echo "CI OK"
