#!/bin/sh
# Non-test Rust lines, per crate and in total: every .rs file under
# crates/*/src and src/, less its `#[cfg(test)] mod tests { … }` blocks
# (the attribute, the module line, and everything up to the `}` that
# closes the module at column 0). Other `#[cfg(test)]` items count.
# Usage: sh scripts/loc.sh   (from any directory of the repository)
cd "$(dirname "$0")/.." || exit 1
find crates/*/src src -name '*.rs' | sort | xargs awk '
FNR == 1 {
    split(FILENAME, part, "/")
    krate = part[1] == "crates" ? part[2] : "messi"
    in_tests = 0
    held = 0
}
in_tests {
    if ($0 ~ /^}/) in_tests = 0
    next
}
held {
    held = 0
    if ($0 ~ /^mod tests *\{/) { in_tests = 1; next }
    lines[krate]++; total++  # the attribute held back
}
/^#\[cfg\(test\)\]/ { held = 1; next }
{ lines[krate]++; total++ }
END {
    for (k in lines) printf "%-10s %6d\n", k, lines[k] | "sort"
    close("sort")
    printf "%-10s %6d\n", "total", total
}'
