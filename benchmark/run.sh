#!/usr/bin/env bash
# Builds the benchmark and runs it: one command for every metric.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--smoke] [--repeat K]
#       the suite: every workload untraced then traced, all metrics as
#       `workload metric value unit`, results in benchmark/out/results.json,
#       non-zero exit on any failed check
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, as BENCHMARK.json's command invokes it
#
# The target directory is shared with the root workspace (or taken from
# CARGO_TARGET_DIR), so the crates under test are not built twice.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cd "$root"
exec "$target/release/bep-benchmark" "$@"
