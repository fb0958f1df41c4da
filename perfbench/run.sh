#!/usr/bin/env bash
# Builds the `kdv` binary and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold_sweep --seed 1 --seconds 40 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet -p kdv-cli --bin kdv >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --kdv "$CARGO_TARGET_DIR/release/kdv" "$@"
