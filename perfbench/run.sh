#!/usr/bin/env bash
# Build the muse-serve daemon and the benchmark from this checkout, then run
# one workload.
#
#   bash perfbench/run.sh --workload <train-eval|serve-nowcast|serve-dayahead> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); scratch files
# (checkpoints, traces, result records) go to .bench_work.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p muse-serve --bin muse-serve
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/muse-perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/muse-serve" --work-dir .bench_work "$@"
