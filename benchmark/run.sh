#!/bin/sh
# Builds the benchmark and runs it: every workload, untraced and traced,
# each in a fresh process. Arguments pass through, e.g.
#   benchmark/run.sh --seed 7
#   benchmark/run.sh --smoke
#   benchmark/run.sh --workload durable_stream --seed 7 --seconds 10 --trace 1
set -e
cd "$(dirname "$0")/.."
exec cargo run --release --offline --manifest-path benchmark/Cargo.toml -- "$@"
