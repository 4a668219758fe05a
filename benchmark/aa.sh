#!/usr/bin/env bash
# A/A check: two interleaved sets of runs of the same build must agree
# within the bounds BENCHMARK.json fixes. Prints Markdown (the committed
# AA_BASELINE.md is this output) and exits non-zero on any disagreement.
#
#   benchmark/aa.sh [runs-per-set, default 5] [extra flags, e.g. --quick]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/.."
runs="${1:-5}"
shift || true
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --aa "$runs" "$@"
