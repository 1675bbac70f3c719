#!/usr/bin/env bash
# Builds the daemons (`pte-serve`, `pte-route`) and the benchmark from source,
# then runs one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold_search --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/serve ] || [ ! -f perfbench/Cargo.toml ]; then
    echo "perfbench: run from the repository root (Cargo.toml and crates/serve not found)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p pte-serve --bin pte-serve --bin pte-route >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

export PERFBENCH_BIN_DIR="$CARGO_TARGET_DIR/release"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
