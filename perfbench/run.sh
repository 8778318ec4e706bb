#!/usr/bin/env bash
# Builds the fleet binaries and the benchmark, then runs the benchmark.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out PATH]
#
# Run from the repository root. Both cargo workspaces (the repository's
# and the benchmark's own) build into one target directory,
# `$CARGO_TARGET_DIR` or `.bench_build`, so the benchmark finds `serve`
# and `dispatch` next to its own executable. Build output goes to
# stderr; stdout carries only the benchmark's record and result lines.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p fq-serve --bin serve -p fq-dispatch --bin dispatch >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fq-perfbench" "$@"
