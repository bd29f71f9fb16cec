#!/usr/bin/env bash
# Builds `preinferd` from the repository's workspace and the benchmark from
# its own, then runs the benchmark with every argument passed through:
#
#   bash perfbench/run.sh --workload corpus_eval --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --runs 5 --workload serve_fresh --seconds 10 --trace 0
#
# Run from the repository root. Honours CARGO_TARGET_DIR; build output goes
# to standard error, so the last line of standard output is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --locked --quiet -p server --bin preinferd >&2
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
daemon_dir="${CARGO_TARGET_DIR:-target}/release"
bench_dir="${CARGO_TARGET_DIR:-perfbench/target}/release"
exec "$bench_dir/perfbench" --daemon "$daemon_dir/preinferd" "$@"
