#!/usr/bin/env bash
# Trace-driven kernel performance regression gate.
#
# Replays the kernels micro-bench suite with a MUSE_OBS trace attached,
# then judges it against the committed baseline with the rule table in
# crates/bench/src/bin/perf_gate.rs: SIMD level, per-iteration bench
# timings, per-call kernel byte traffic, sampling overhead and fleet
# speedup. Before judging, `check` proves each rule fails on a doctored
# copy of its inputs.
#
# Usage:
#   scripts/perf_gate.sh            check against BENCH_kernels.json (CI)
#   scripts/perf_gate.sh record     re-record the committed baseline
#
# The gate pins MUSE_THREADS=1 unless the caller overrides it, so baseline
# and check runs always compare like with like.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${BASELINE:-BENCH_kernels.json}"
# Absolute path: cargo runs bench binaries from the package directory, so a
# relative MUSE_OBS would land under crates/bench/.
TRACE="${TRACE:-$PWD/target/perf_gate_trace.jsonl}"
export MUSE_THREADS="${MUSE_THREADS:-1}"

mode="${1:-check}"
case "$mode" in
check | record) ;;
*)
    echo "usage: $0 [check|record]" >&2
    exit 2
    ;;
esac

echo "perf_gate: running kernels bench (MUSE_THREADS=$MUSE_THREADS, trace=$TRACE)"
MUSE_OBS="$TRACE" cargo bench -q -p muse-bench --bench kernels

cargo run -q --release -p muse-bench --bin perf_gate -- "$mode" "$TRACE" "$BASELINE"
