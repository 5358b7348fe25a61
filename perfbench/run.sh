#!/usr/bin/env bash
# Builds the `tasm` binary and the benchmark from source, then runs one
# benchmark invocation:
#
#   bash perfbench/run.sh --workload stream|corpus|serve --seed N \
#       --seconds S --trace 0|1
#
# Run it from the root of a checkout. Build outputs go to
# $CARGO_TARGET_DIR (default `.bench_build`); the benchmark's scratch and
# trace files go to `.perfbench/`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p tasm-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --tasm "$CARGO_TARGET_DIR/release/tasm" --profile release "$@"
