#!/usr/bin/env bash
# Builds the benchmark and the `segrout` binary (release), then runs the
# benchmark from the repository root with the arguments given, e.g.
#   bash segbench/run.sh --workload optimize --seed 1 --seconds 10 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build) and to
# stderr, so the last line of stdout is the benchmark's result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path segbench/Cargo.toml 1>&2
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin segrout 1>&2
export SEGROUT_BIN="$CARGO_TARGET_DIR/release/segrout"
exec "$CARGO_TARGET_DIR/release/segbench" "$@"
