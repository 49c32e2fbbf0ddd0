#!/usr/bin/env bash
# The benchmark contract's steadiness check: run every workload untraced with
# ten seeds and print, per workload and end-to-end metric, the inter-quartile
# spread of the ten values as a share of their median, next to the bound.
#
#   spread.sh [--seconds S] [--first-seed N]
#
# Run it from the root of the checkout. Takes about 5 x 10 x (S + 7) seconds.
set -euo pipefail

seconds=""
first=1
while [ $# -gt 0 ]; do
    case "$1" in
        --seconds) seconds="$2"; shift 2 ;;
        --first-seed) first="$2"; shift 2 ;;
        *) echo "spread.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ontorew-benchmark"
mkdir -p benchmark/out/spread
outputs=()
for seed in $(seq "$first" $((first + 9))); do
    out="benchmark/out/spread/seed-$seed.txt"
    : > "$out"
    for workload in univ-hot-read univ-churn-compile registrar-goal-read registrar-crud-durable social-cyclic-join; do
        "$bin" --workload "$workload" --seed "$seed" --trace 0 ${seconds:+--seconds "$seconds"} | sed '$d' >> "$out"
    done
    outputs+=("$out")
    echo "seed $seed done" >&2
done
"$bin" --spread "${outputs[@]}"
