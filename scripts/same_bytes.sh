#!/usr/bin/env sh
# Byte differential between two `repro` binaries, for changes that must
# not move a byte (performance work, refactors).
#
#   scripts/same_bytes.sh PARENT_REPRO CHANGE_REPRO [SPEC_DIR...]
#
# Replays every scenarios/*.json, every perfbench/workloads/*.json and
# every SPEC_DIR/*.json through both binaries at --jobs 1 and --jobs 2,
# runs `scenario-matrix` over scenarios/ and over each SPEC_DIR at the same
# two worker counts, then runs the frozen policy search (`autotune
# scenarios/portfolio_default --budget 96 --seed 7`) through both. Each
# run's stdout and exit code must match between the binaries; a spec (or
# matrix) both reject with the same exit code counts as the same. After
# each run the two sides' saved probe caches must be byte-identical too
# (a price can move without moving a printed byte); a cache saved on only
# one side is a difference. A matrix
# stops at its first inadmissible spec, so give rejected specs their own
# SPEC_DIR to keep the valid ones' matrix leg meaningful. The change's
# autotune output must also equal
# crates/bench/golden/tuned_default.json. Each binary runs from its own
# temporary directory with its own PROBE_CACHE, so neither sees the
# other's probes. Prints one line per run and exits 1 if anything differs.
#
# Build the parent's binary from a clean checkout of the parent commit,
# e.g. `git archive PARENT | tar -x -C DIR`, then
# `cargo build --release --offline -p bench --bin repro` inside DIR.

set -eu

if [ "$#" -lt 2 ]; then
    echo "usage: $0 PARENT_REPRO CHANGE_REPRO [SPEC_DIR...]" >&2
    exit 2
fi

# Absolute form of a path given relative to the caller's directory.
abs() {
    case "$1" in
        /*) printf '%s\n' "$1" ;;
        *) printf '%s/%s\n' "$PWD" "$1" ;;
    esac
}

parent=$(abs "$1")
change=$(abs "$2")
shift 2
for bin in "$parent" "$change"; do
    if [ ! -x "$bin" ]; then
        echo "$0: not an executable: $bin" >&2
        exit 2
    fi
done
spec_dirs=""
for d in "$@"; do
    spec_dirs="$spec_dirs $(abs "$d")"
done

cd "$(dirname "$0")/.."
root=$PWD
work=$(mktemp -d "${TMPDIR:-/tmp}/same_bytes.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
mkdir "$work/parent" "$work/change"

runs=0
differ=0

# run SIDE BIN OUT ARGS...: run BIN from SIDE's directory with SIDE's
# probe cache, stdout to OUT; prints the exit code.
run() {
    side=$1
    bin=$2
    out=$3
    shift 3
    code=0
    (cd "$work/$side" && PROBE_CACHE="$work/$side/probe_cache.json" "$bin" "$@") \
        > "$out" 2> /dev/null || code=$?
    echo "$code"
}

# caches_match: the two sides' saved probe caches are byte-identical, or
# neither side has saved one.
caches_match() {
    p_cache="$work/parent/probe_cache.json"
    c_cache="$work/change/probe_cache.json"
    { [ ! -e "$p_cache" ] && [ ! -e "$c_cache" ]; } || cmp -s "$p_cache" "$c_cache"
}

# compare LABEL ARGS...: one run of ARGS through both binaries, then a
# compare of the probe caches both sides have saved so far.
compare() {
    label=$1
    shift
    p_code=$(run parent "$parent" "$work/parent.out" "$@")
    c_code=$(run change "$change" "$work/change.out" "$@")
    runs=$((runs + 1))
    if [ "$p_code" != "$c_code" ] || ! cmp -s "$work/parent.out" "$work/change.out"; then
        differ=$((differ + 1))
        echo "DIFFER  $label (exit $p_code -> $c_code)"
    elif ! caches_match; then
        differ=$((differ + 1))
        echo "DIFFER  $label (saved probe caches)"
    else
        echo "same    $label (exit $c_code)"
    fi
}

for spec in "$root"/scenarios/*.json "$root"/perfbench/workloads/*.json; do
    for jobs in 1 2; do
        compare "jobs=$jobs ${spec#"$root"/}" scenario "$spec" --jobs "$jobs"
    done
done
for dir in $spec_dirs; do
    for spec in "$dir"/*.json; do
        [ -e "$spec" ] || continue
        for jobs in 1 2; do
            compare "jobs=$jobs $spec" scenario "$spec" --jobs "$jobs"
        done
    done
done

for dir in "$root/scenarios" $spec_dirs; do
    for jobs in 1 2; do
        compare "jobs=$jobs scenario-matrix ${dir#"$root"/}" scenario-matrix "$dir" --jobs "$jobs"
    done
done

compare "autotune portfolio_default --budget 96 --seed 7" \
    autotune "$root/scenarios/portfolio_default" --budget 96 --seed 7 --jobs 2
runs=$((runs + 1))
if cmp -s "$work/change.out" "$root/crates/bench/golden/tuned_default.json"; then
    echo "same    autotune output vs crates/bench/golden/tuned_default.json"
else
    differ=$((differ + 1))
    echo "DIFFER  autotune output vs crates/bench/golden/tuned_default.json"
fi

echo "$runs runs, $differ differ"
[ "$differ" -eq 0 ]
