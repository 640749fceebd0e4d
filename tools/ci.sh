#!/bin/sh
# Hardened CI configuration: Debug build (post-pass verifier checks on by
# default) with AddressSanitizer + UBSan and warnings-as-errors, then the
# full test suite; afterwards a ThreadSanitizer build (its own tree —
# TSan and ASan cannot share one) runs the metrics suite and a parallel
# sweep smoke. Usage:
#
#   tools/ci.sh [build-dir]
#
# The build directory defaults to build-san, kept apart from the regular
# `build/` tree so the two configurations never share object files; the
# TSan stage appends -tsan to the chosen directory.
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build-san}"
[ "$#" -gt 0 ] && shift
JOBS="$(nproc 2>/dev/null || echo 4)"

# Every stage that does not run is named again in the summary printed on
# exit, so a skipped gate cannot pass unnoticed in a green log.
SKIPPED=""
skip_stage() {
    echo "SKIPPED: $1" >&2
    SKIPPED="$SKIPPED
  - $1"
}
summary() {
    status=$?
    if [ "$status" -eq 0 ]; then
        echo "=== ci.sh summary: passed ==="
    else
        echo "=== ci.sh summary: FAILED (exit $status) ==="
    fi
    if [ -n "$SKIPPED" ]; then
        echo "skipped stages:$SKIPPED"
    else
        echo "skipped stages: none"
    fi
}
trap summary EXIT

cmake -B "$BUILD" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DFGP_SANITIZE=address,undefined \
    -DFGP_WERROR=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$BUILD" -j "$JOBS"

# Static analysis: the curated .clang-tidy profile (bugprone-*,
# performance-*, modernize-use-override; warnings-as-errors) over every
# src/ translation unit, using the compile database exported above.
# Skipped when the toolchain ships no clang-tidy — the sanitizer and
# test stages below still gate the build.
if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== clang-tidy: src/ (warnings-as-errors) ==="
    find src -name '*.cc' -print | xargs -P "$JOBS" -n 4 \
        clang-tidy -p "$BUILD" --quiet
else
    skip_stage "clang-tidy static analysis (clang-tidy not installed)"
fi

# Make UBSan findings fatal so ctest reports them as failures.
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS" "$@"

# The observability suite is part of the default run above; repeat the
# label explicitly so a filtered "$@" invocation cannot silently skip it.
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$BUILD" --output-on-failure -L metrics

# Likewise the analyzer suite: it carries the static-disambiguation
# soundness cross-check (analyze_test runs with static disambiguation
# and the FGP_VERIFY checks on, so every workload x issue model retires
# under the MD001/MD002 retirement check — here with ASan/UBSan
# watching).
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$BUILD" --output-on-failure -L analyze

# Interval-profiler round-trip under ASan/UBSan: the profiling
# simulation, its fgpsim-profile-v1 stream and the stream's closure
# identities (per-window slot closure, window sums vs aggregates,
# critical-path bounds) must all hold in the instrumented build.
echo "=== profile round-trip: fgpsim profile --json + validate ==="
"$BUILD/tools/fgpsim" profile grep --config dyn4/8A/enlarged \
    --interval 5000 --json > "$BUILD/profile_gate.jsonl" 2>/dev/null
sh tools/check_bench.sh --validate-profile "$BUILD/profile_gate.jsonl"

# Differential round-trip under ASan/UBSan: profile the same workload
# with and without static disambiguation, diff the two streams, and
# validate the fgpsim-diff-v1 output — every aligned window's IPC delta
# must decompose into the stall-slot breakdown with zero residual
# (check_bench recomputes the residual independently of the differ).
echo "=== diff round-trip: fgpsim diff --json + validate ==="
FGP_STATIC_DISAMBIG=1 "$BUILD/tools/fgpsim" profile grep \
    --config dyn4/8A/enlarged --interval 5000 --json \
    > "$BUILD/profile_gate_sd.jsonl" 2>/dev/null
"$BUILD/tools/fgpsim" diff \
    "$BUILD/profile_gate.jsonl" "$BUILD/profile_gate_sd.jsonl" \
    --json > "$BUILD/diff_gate.jsonl"
sh tools/check_bench.sh --validate-diff "$BUILD/diff_gate.jsonl"

# Exact-schedule oracle round-trip under ASan/UBSan: solve every block
# to optimality, then have check_bench recompute the certification
# sandwich height <= lower <= upper <= greedy from the oracle_blocks
# dump. A second pair of runs starves the state budget to one state —
# the certified-interval fallback must be deterministic (byte-identical
# JSON across repeats) or cached lint output would flap in CI.
echo "=== oracle round-trip: fgpsim analyze --oracle --json + validate ==="
"$BUILD/tools/fgpsim" analyze diff --config static/4A/enlarged \
    --oracle --json > "$BUILD/oracle_gate.json"
sh tools/check_bench.sh --validate-analyze "$BUILD/oracle_gate.json"
sh tools/check_bench.sh --validate-oracle "$BUILD/oracle_gate.json"
"$BUILD/tools/fgpsim" analyze diff --config static/4A/enlarged \
    --oracle --oracle-budget 1 --json > "$BUILD/oracle_gate_b1.json"
"$BUILD/tools/fgpsim" analyze diff --config static/4A/enlarged \
    --oracle --oracle-budget 1 --json > "$BUILD/oracle_gate_b2.json"
cmp "$BUILD/oracle_gate_b1.json" "$BUILD/oracle_gate_b2.json"
sh tools/check_bench.sh --validate-oracle "$BUILD/oracle_gate_b1.json"

# Perf gate: run the reduced perf slice twice and compare the two
# fgpsim-run-v1 manifests. IPC is deterministic, so any IPC delta is a
# real regression; wall time is host noise on a loaded CI machine, so it
# gets a deliberately loose tolerance.
echo "=== perf gate: perf_selfcheck x2 + fgpsim compare ==="
export FGP_PROGRESS=0
PERF_SCALE="${FGP_CI_PERF_SCALE:-0.05}"
FGP_SCALE="$PERF_SCALE" FGP_RUN_MANIFEST="$BUILD/perf_gate_a.jsonl" \
    "$BUILD/bench/perf_selfcheck" --reduced --out "$BUILD/perf_gate_a.json"
FGP_SCALE="$PERF_SCALE" FGP_RUN_MANIFEST="$BUILD/perf_gate_b.jsonl" \
    "$BUILD/bench/perf_selfcheck" --reduced --out "$BUILD/perf_gate_b.json"
sh tools/check_bench.sh --validate-run "$BUILD/perf_gate_a.jsonl"
sh tools/check_bench.sh --validate-run "$BUILD/perf_gate_b.jsonl"
# compare prints per-cell diff attribution itself when an IPC gate
# fails; the explicit fgpsim diff fallback also covers wall-time and
# cell-set failures before the stage exits nonzero.
"$BUILD/tools/fgpsim" compare \
    "$BUILD/perf_gate_a.jsonl" "$BUILD/perf_gate_b.jsonl" \
    --tolerance 10% --wall-tolerance 75% || {
    "$BUILD/tools/fgpsim" diff \
        "$BUILD/perf_gate_a.jsonl" "$BUILD/perf_gate_b.jsonl" || true
    exit 1
}

# Release perf gate: the sanitizer gate above proves determinism, but
# its instrumented wall times say nothing about real speed. This stage
# repeats the reduced slice in an optimized tree — the build perf
# numbers are quoted from — so the wall tolerance can be much tighter
# (40% vs the sanitizer stage's 75%); IPC tolerance stays exact-ish at
# 10%. perf_selfcheck itself additionally enforces the engine's
# zero-steady-state-allocation contract, so this stage fails if a warmed
# workspace ever allocates inside the cycle loop.
echo "=== Release perf gate: perf_selfcheck x2 + fgpsim compare ==="
REL_BUILD="$BUILD-rel"
cmake -B "$REL_BUILD" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DFGP_WERROR=ON
cmake --build "$REL_BUILD" -j "$JOBS"
FGP_SCALE="$PERF_SCALE" FGP_RUN_MANIFEST="$REL_BUILD/perf_gate_a.jsonl" \
    "$REL_BUILD/bench/perf_selfcheck" --reduced --out "$REL_BUILD/perf_gate_a.json"
FGP_SCALE="$PERF_SCALE" FGP_RUN_MANIFEST="$REL_BUILD/perf_gate_b.jsonl" \
    "$REL_BUILD/bench/perf_selfcheck" --reduced --out "$REL_BUILD/perf_gate_b.json"
sh tools/check_bench.sh --validate-run "$REL_BUILD/perf_gate_a.jsonl"
sh tools/check_bench.sh --validate-run "$REL_BUILD/perf_gate_b.jsonl"
"$REL_BUILD/tools/fgpsim" compare \
    "$REL_BUILD/perf_gate_a.jsonl" "$REL_BUILD/perf_gate_b.jsonl" \
    --tolerance 10% --wall-tolerance 40% || {
    "$REL_BUILD/tools/fgpsim" diff \
        "$REL_BUILD/perf_gate_a.jsonl" "$REL_BUILD/perf_gate_b.jsonl" \
        || true
    exit 1
}

# Same release gate with static disambiguation consuming its facts:
# schedules change (loads hoist above proven-independent stores), so
# these manifests are compared against each other, not the baseline —
# the feature must stay deterministic and inside the same wall gate.
echo "=== Release perf gate: FGP_STATIC_DISAMBIG=1 ==="
FGP_STATIC_DISAMBIG=1 FGP_SCALE="$PERF_SCALE" \
    FGP_RUN_MANIFEST="$REL_BUILD/perf_gate_sd_a.jsonl" \
    "$REL_BUILD/bench/perf_selfcheck" --reduced --out "$REL_BUILD/perf_gate_sd_a.json"
FGP_STATIC_DISAMBIG=1 FGP_SCALE="$PERF_SCALE" \
    FGP_RUN_MANIFEST="$REL_BUILD/perf_gate_sd_b.jsonl" \
    "$REL_BUILD/bench/perf_selfcheck" --reduced --out "$REL_BUILD/perf_gate_sd_b.json"
sh tools/check_bench.sh --validate-run "$REL_BUILD/perf_gate_sd_a.jsonl"
"$REL_BUILD/tools/fgpsim" compare \
    "$REL_BUILD/perf_gate_sd_a.jsonl" "$REL_BUILD/perf_gate_sd_b.jsonl" \
    --tolerance 10% --wall-tolerance 40% || {
    "$REL_BUILD/tools/fgpsim" diff \
        "$REL_BUILD/perf_gate_sd_a.jsonl" "$REL_BUILD/perf_gate_sd_b.jsonl" \
        || true
    exit 1
}

# Cross-config differential attribution over the manifests themselves:
# baseline vs static-disambiguation runs of the same reduced slice.
# Run-v1 manifests carry whole-run stall totals per cell, so the differ
# synthesizes one run-spanning window per cell — the slot identity holds
# globally, and the validator recomputes every residual to zero.
"$REL_BUILD/tools/fgpsim" diff \
    "$REL_BUILD/perf_gate_a.jsonl" "$REL_BUILD/perf_gate_sd_a.jsonl" \
    --json > "$REL_BUILD/diff_gate_sd.jsonl"
sh tools/check_bench.sh --validate-diff "$REL_BUILD/diff_gate_sd.jsonl"

# ThreadSanitizer stage: the harness fans sweeps out across threads
# (harness/parallel.hh), so race coverage matters. RelWithDebInfo keeps
# the TSan run's wall time sane; the metrics label exercises the
# thread-safe registry paths and the sweep smoke drives the worker pool.
echo "=== TSan stage: ctest -L metrics + parallel sweep smoke ==="
TSAN_BUILD="$BUILD-tsan"
cmake -B "$TSAN_BUILD" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFGP_SANITIZE=thread \
    -DFGP_WERROR=ON
cmake --build "$TSAN_BUILD" -j "$JOBS"
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$JOBS" -L metrics
# The disambiguation soundness cross-check again, now under TSan: the
# analyzer sweep fans out over the worker pool with facts + fast loads +
# retirement checks enabled in every cell.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$JOBS" -L analyze
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    FGP_SCALE="${FGP_CI_PERF_SCALE:-0.05}" FGP_JOBS=4 \
    "$TSAN_BUILD/bench/full_sweep" > /dev/null

# Profiled parallel sweep under TSan: every worker thread carries its
# own thread-local profiler, and the manifest (with interleaved
# kind:"window" streams) must still validate.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    FGP_SCALE="${FGP_CI_PERF_SCALE:-0.05}" FGP_JOBS=4 \
    FGP_PROFILE_WINDOW=5000 \
    FGP_RUN_MANIFEST="$TSAN_BUILD/profile_sweep.jsonl" \
    "$TSAN_BUILD/bench/full_sweep" > /dev/null
sh tools/check_bench.sh --validate-run "$TSAN_BUILD/profile_sweep.jsonl"
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    "$TSAN_BUILD/tools/fgpsim" profile grep --config dyn256/8G/single \
    --interval 5000 --json > "$TSAN_BUILD/profile_gate.jsonl" 2>/dev/null
sh tools/check_bench.sh --validate-profile "$TSAN_BUILD/profile_gate.jsonl"

# Diff round-trip under TSan: same FGP_STATIC_DISAMBIG pair as the ASan
# stage, including the retired-node log so the schedule-divergence
# pinpointing path (per-window FNV fingerprints + binary search) runs
# under the race detector too.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" FGP_STATIC_DISAMBIG=1 \
    "$TSAN_BUILD/tools/fgpsim" profile grep --config dyn256/8G/single \
    --interval 5000 --json --retired \
    > "$TSAN_BUILD/profile_gate_sd.jsonl" 2>/dev/null
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    "$TSAN_BUILD/tools/fgpsim" diff \
    "$TSAN_BUILD/profile_gate.jsonl" "$TSAN_BUILD/profile_gate_sd.jsonl" \
    --json > "$TSAN_BUILD/diff_gate.jsonl"
sh tools/check_bench.sh --validate-diff "$TSAN_BUILD/diff_gate.jsonl"
