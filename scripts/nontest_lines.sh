#!/usr/bin/env bash
# Per-crate line counts of the Rust sources under crates/, src/ and tests/,
# split into non-test and test lines, with a total.
#
#   scripts/nontest_lines.sh [CHECKOUT]     (default: this script's checkout)
#
# Test lines are the `tests/` directories, the files a `#[cfg(test)]` module
# declaration pulls in (`#[cfg(test)] mod tests;`, with or without
# `#[path = ...]`), and the top-level `#[cfg(test)]` items of every other
# file: from the attribute to the item's closing `}` in column 0 (rustfmt
# layout). Every other line, blank and comment lines included, is non-test.
# Test lines are printed too, so code moved into tests cannot pass for a
# reduction.
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"
find crates src tests -name '*.rs' | sort | xargs awk '
function dir(path) { sub(/\/[^\/]*$/, "", path); return path }
function unit(path,   parts) {
    split(path, parts, "/")
    if (parts[1] == "crates") return "crates/" parts[2]
    return parts[1]
}
BEGIN {
    # Pass 1: the files that `#[cfg(test)]` module declarations pull in.
    for (i = 1; i < ARGC; i++) {
        file = ARGV[i]; armed = 0; path = ""
        base = file; sub(/.*\//, "", base)
        here = (base == "lib.rs" || base == "main.rs" || base == "mod.rs") ? dir(file) : substr(file, 1, length(file) - 3)
        while ((getline line < file) > 0) {
            if (line ~ /^#\[cfg\(test\)\]/) { armed = 1; path = ""; continue }
            if (armed && match(line, /^#\[path = "[^"]*"\]/)) {
                path = substr(line, 10, RLENGTH - 11); continue
            }
            if (armed && match(line, /^(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+;/)) {
                name = line; sub(/^(pub(\([a-z]+\))? )?mod /, "", name); sub(/;.*/, "", name)
                if (path != "") test_file[dir(file) "/" path] = 1
                else { test_file[here "/" name ".rs"] = 1; test_file[here "/" name "/mod.rs"] = 1 }
            }
            armed = 0
        }
        close(file)
    }
}
FNR == 1 {
    in_test = 0; whole = (FILENAME ~ /(^|\/)tests\// || FILENAME in test_file)
    u = unit(FILENAME)
    if (!(u in seen)) { seen[u] = 1; units[++n] = u }
}
{
    if (whole) { test[u]++; next }
    if (!in_test && $0 ~ /^#\[cfg\(test\)\]/) in_test = 1
    if (in_test) {
        test[u]++
        # The item ends with a one-line declaration or its closing brace.
        if ($0 ~ /^[a-z].*;$/ || $0 ~ /^}/) in_test = 0
        next
    }
    nontest[u]++
}
END {
    printf "%-22s %10s %10s\n", "crate", "non-test", "test"
    for (i = 1; i <= n; i++) {
        u = units[i]
        printf "%-22s %10d %10d\n", u, nontest[u], test[u]
        total_nontest += nontest[u]; total_test += test[u]
    }
    printf "%-22s %10d %10d\n", "total", total_nontest, total_test
}'
