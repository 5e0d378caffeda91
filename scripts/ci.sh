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

# perfbench is a standalone package (its own workspace) compiled against
# the scheduler's public API; building it here makes an API change that
# breaks the benchmark fail CI instead of the next perf run. Its tests are
# not run here (see perfbench/README.md).
echo "== benchmark harness builds against the current API =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# One short paper_sweep run through the benchmark's own correctness
# gate: every round must reproduce the pinned digest of the 47 training
# runs behind Table II, the grid, Fig 9, Fig 15, Fig 16 and Table IV —
# the fabric allocator under contention and the Falcon port series
# included. The result object is the last stdout line.
echo "== paper_sweep digest through the benchmark (1 s) =="
sweep=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload paper_sweep --seconds 1 --trace 0 | tail -n 1)
echo "$sweep"
case "$sweep" in
    *'"correct":true'*) ;;
    *) echo "ERROR: paper_sweep rounds did not reproduce the pinned digest" >&2; exit 1 ;;
esac
case "$sweep" in
    *'"failed":0'[!0-9]*) ;;
    *) echo "ERROR: paper_sweep reported failed rounds" >&2; exit 1 ;;
esac

echo "== tier-1: tests =="
cargo test -q --offline

echo "== workspace tests (all property + golden suites) =="
cargo test -q --offline --workspace

echo "== benches compile (smoke run, 1 iteration; refreshes BENCH_*.json) =="
# This pass regenerates every BENCH_*.json baseline, so a stale baseline
# never outlives the engine change that invalidated it. replay_scale
# rides along and *asserts* the >= 5x replay-engine speedup and the
# --jobs 1 vs --jobs 4 byte identity even at smoke iteration counts.
TESTKIT_BENCH_ITERS=1 TESTKIT_BENCH_WARMUP=0 cargo bench --offline -p bench

# One matrix pass runs every checked-in scenario — training, faults,
# serving, and the multi-chassis scale-out specs (cluster_scale32/64/128,
# up to 8 chassis / 128 GPUs). `repro cluster|faults|serve` are aliases
# for this same path over the *_policies.json files it already covers,
# and one test binary guards every pinned golden through
# testkit::check_scenario_golden.
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

# The preemption study exercised on its own: checkpoint preemption +
# migration defrag must replay cleanly through the CLI path too, not
# just inside the matrix fan-out.
echo "== priority-scenario smoke (cluster_priority, 2 workers) =="
cargo run --release --offline -p bench --bin repro -- scenario scenarios/cluster_priority.json --jobs 2

# The production-scale replay (10k jobs + 60 services, ~188k trace
# events) must stay interactive in release mode: the optimized engine
# replays it in well under a second, so a 60-second wall-clock budget
# only trips if the event loop regresses by more than an order of
# magnitude. POSIX sh, whole seconds — coarse on purpose.
echo "== production-scale replay under wall-clock budget (pai_magnitude, 2 workers) =="
pai_start=$(date +%s)
cargo run --release --offline -p bench --bin repro -- scenario scenarios/pai_magnitude.json --jobs 2
pai_elapsed=$(( $(date +%s) - pai_start ))
echo "pai_magnitude replayed in ${pai_elapsed}s (budget 60s)"
if [ "$pai_elapsed" -gt 60 ]; then
    echo "ERROR: pai_magnitude replay took ${pai_elapsed}s > 60s budget" >&2
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
# Guards all six frozen goldens, including the pai_magnitude summary
# report that pins the optimized replay engine's semantics and the
# cluster_priority report that pins the preemption engine's decisions.
cargo test -q --offline -p bench --test scenario_goldens

echo "CI OK"
