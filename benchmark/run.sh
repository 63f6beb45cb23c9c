#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repo root.
#
#   run.sh --workload <name> [--seed n] [--seconds s] [--trace 0|1]
#   run.sh --all [--repeat n] [--check] [--seed n] [--seconds s] [--trace 0|1]
#   run.sh --describe            # prints BENCHMARK.json
#   run.sh --test                # the harness's own unit tests
#
# Build output goes to $CARGO_TARGET_DIR (default benchmark/target);
# results, span files and scratch directories to benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

if [[ "${1:-}" == "--test" ]]; then
    exec cargo test --quiet --release --manifest-path benchmark/Cargo.toml
fi
# Cargo's own messages go to stderr; stdout belongs to the results.
cargo build --quiet --release --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/infobus-benchmark" "$@"
