#!/bin/sh
# Non-test Rust lines, per crate and in total: every .rs file under
# crates/*/src and src/, counted only above its first `#[cfg(test)]`
# line (in-file test modules sit at the end of a file).
# Usage: sh scripts/loc.sh   (from any directory of the repository)
cd "$(dirname "$0")/.." || exit 1
find crates/*/src src -name '*.rs' | sort | xargs awk '
FNR == 1 {
    split(FILENAME, part, "/")
    krate = part[1] == "crates" ? part[2] : "messi"
    in_tests = 0
}
/^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
!in_tests { lines[krate]++; total++ }
END {
    for (k in lines) printf "%-10s %6d\n", k, lines[k] | "sort"
    close("sort")
    printf "%-10s %6d\n", "total", total
}'
