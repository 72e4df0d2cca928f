#!/usr/bin/env bash
# Builds the release `updp-serve` binary and the benchmark from source,
# then runs the benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Cargo output goes to standard error; the last line of standard output
# is the benchmark's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p updp-serve --bin updp-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --server-bin "$CARGO_TARGET_DIR/release/updp-serve"
