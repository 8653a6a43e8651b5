#!/usr/bin/env bash
# Builds the benchmark and runs every workload, untraced then traced, one
# process per run. The combined result goes to benchmark/results/<name>.json
# (written to a temporary file and renamed); <name> defaults to "latest",
# which git ignores. Further arguments go to the binary, e.g. --seed 7.
set -euo pipefail
cd "$(dirname "$0")/.."
name="${1:-latest}"
shift || true
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --out "benchmark/results/${name}.json" "$@"
