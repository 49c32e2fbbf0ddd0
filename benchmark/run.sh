#!/usr/bin/env bash
# The benchmark's one command. Builds --release, then runs
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1    (the contract)
#       one workload once; the last line of stdout is the JSON result.
#   run.sh [--seed N] [--workload NAME] [--quick]
#       the full set in a fixed order, untraced then traced, each run in its
#       own process; writes benchmark/out/results-<seed>.json, and the traced
#       runs write benchmark/out/trace-<workload>-<seed>.ndjson.
#       --quick uses 2 s windows: for smoke use only, never for claims.
#
# Run it from the root of the checkout. It honours CARGO_TARGET_DIR.
set -euo pipefail

if [ ! -f benchmark/Cargo.toml ]; then
    echo "run.sh: run it from the root of the checkout (benchmark/Cargo.toml not found)" >&2
    exit 2
fi
# The build log goes to stderr: stdout carries only metric lines and results.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ontorew-benchmark"

seed=1
workloads=(univ-hot-read univ-churn-compile registrar-goal-read registrar-crud-durable social-cyclic-join)
contract=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --workload) workloads=("$2"); shift 2 ;;
        --quick) pass+=(--quick); shift ;;
        --trace|--seconds) contract=1; pass+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

if [ "$contract" = 1 ]; then
    exec "$bin" --workload "${workloads[0]}" --seed "$seed" "${pass[@]}"
fi

mkdir -p benchmark/out
results="benchmark/out/results-$seed.json"
rows=()
for workload in "${workloads[@]}"; do
    for trace in 0 1; do
        log="benchmark/out/last-run.txt"
        "$bin" --workload "$workload" --seed "$seed" --trace "$trace" "${pass[@]}" | tee "$log" | sed '$d'
        rows+=("  {\"workload\": \"$workload\", \"trace\": $trace, \"result\": $(tail -n 1 "$log")}")
    done
done
rm -f benchmark/out/last-run.txt
{
    echo "["
    for i in "${!rows[@]}"; do
        if [ "$i" -lt $((${#rows[@]} - 1)) ]; then echo "${rows[$i]},"; else echo "${rows[$i]}"; fi
    done
    echo "]"
} > "$results"
echo "results written to $results" >&2
