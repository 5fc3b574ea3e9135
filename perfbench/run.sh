#!/usr/bin/env bash
# Builds the benchmark and the `themis-serve` daemon from source (release
# profile, no-ops once built), then runs one benchmark workload.
#
#   bash perfbench/run.sh --workload campaign-sweep --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last line of
# stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet -p themis-bench --bin themis-serve >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/themis-perfbench" "$@"
