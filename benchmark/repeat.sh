#!/usr/bin/env bash
# Run the full set twice on the same commit and compare: prints, per workload
# and end-to-end metric, both values and their relative difference, and exits
# non-zero if any differs by more than its bound (or any operation failed).
#
#   repeat.sh [--seed N] [--quick]
#
# Run it from the root of the checkout.
set -euo pipefail

mkdir -p benchmark/out
bash benchmark/run.sh "$@" > benchmark/out/repeat-a.txt
bash benchmark/run.sh "$@" > benchmark/out/repeat-b.txt
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ontorew-benchmark"
"$bin" --compare benchmark/out/repeat-a.txt benchmark/out/repeat-b.txt
