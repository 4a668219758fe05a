#!/usr/bin/env bash
# A/B run of the benchmark: a parent revision against the working tree.
#
#   sh scripts/ab.sh <parent-rev> [workload…]     (default: every workload)
#
# Checks both sides out into two git worktrees (the working tree's
# uncommitted changes to tracked files included, via `git stash create`),
# builds the benchmark in each, then runs PAIRS pairs per workload
# through the command BENCHMARK.json names, with seed i for pair i and
# the side that runs first alternating, so drift on the machine does not
# favour one side. Prints every run and, per end-to-end
# metric, each side's median [q1, q3]. Exits non-zero when a run fails or
# when a change median is worse than the parent's and lies both outside
# the parent's quartiles and beyond that metric's BENCHMARK.json bound.
[ -n "${BASH_VERSION:-}" ] || exec bash "$0" "$@"
set -euo pipefail

PAIRS=10

[ $# -ge 1 ] || { echo "usage: sh scripts/ab.sh <parent-rev> [workload…]" >&2; exit 2; }
parent_rev="$(git rev-parse --verify "$1^{commit}")"
shift
root="$(git rev-parse --show-toplevel)"
cd "$root"
change_rev="$(git stash create)"
[ -n "$change_rev" ] || change_rev="$(git rev-parse HEAD)"

contract="$root/BENCHMARK.json"
if [ $# -gt 0 ]; then
    workloads="$*"
else
    workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$contract")"
fi
# The benchmark command as BENCHMARK.json spells it.
mapfile -t command < <(python3 -c 'import json, sys
print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$contract")

work="$(mktemp -d)"
cleanup() {
    for side in parent change; do
        [ -d "$work/$side" ] && git worktree remove --force "$work/$side" >/dev/null 2>&1
    done
    rm -rf "$work"
}
trap cleanup EXIT

for side in parent change; do
    rev="$parent_rev"
    [ "$side" = change ] && rev="$change_rev"
    git worktree add --quiet --detach "$work/$side" "$rev"
    echo "ab: building $side ($rev)" >&2
    cargo build --release --offline --quiet --manifest-path "$work/$side/benchmark/Cargo.toml"
done

# run <side> <workload> <seed>: one benchmark run; its result line
# (the last line it prints) is appended to $work/results.
run() {
    local out status=0
    out="$(cd "$work/$1" && "${command[@]}" --workload "$2" --seed "$3")" || status=$?
    printf '%s %s %s %s %s\n' "$1" "$2" "$3" "$status" "$(printf '%s\n' "$out" | tail -n 1)" \
        >> "$work/results"
    echo "ab: $2 seed $3 $1 exit $status" >&2
}

for workload in $workloads; do
    for seed in $(seq 1 "$PAIRS"); do
        if [ $((seed % 2)) = 1 ]; then
            run parent "$workload" "$seed"
            run change "$workload" "$seed"
        else
            run change "$workload" "$seed"
            run parent "$workload" "$seed"
        fi
    done
done

python3 - "$contract" "$work/results" <<'EOF'
import json, statistics, sys

contract = json.load(open(sys.argv[1]))
runs = {}  # (workload, side) -> list of (seed, status, result or None)
for line in open(sys.argv[2]):
    side, workload, seed, status, result = line.rstrip("\n").split(" ", 4)
    try:
        parsed = json.loads(result)
    except ValueError:
        parsed = None
    runs.setdefault((workload, side), []).append((int(seed), int(status), parsed))

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

bad = []
metrics = contract["end_to_end"]
for workload in dict.fromkeys(w for w, _ in runs):
    print(f"## {workload}")
    print("side   seed  exit  failed  " + "  ".join(m["name"] for m in metrics))
    values = {}
    for side in ("parent", "change"):
        for seed, status, result in runs[(workload, side)]:
            if status != 0 or result is None:
                bad.append(f"{workload} {side} seed {seed}: exit {status}")
                print(f"{side:6} {seed:4}  {status:4}  (no result)")
                continue
            row = [result["metrics"][m["name"]]["value"] for m in metrics]
            for m, v in zip(metrics, row):
                values.setdefault((side, m["name"]), []).append(v)
            print(f"{side:6} {seed:4}  {status:4}  {result['failed']:6}  "
                  + "  ".join(f"{v:g}" for v in row))
    for m in metrics:
        name = m["name"]
        p, c = values.get(("parent", name)), values.get(("change", name))
        if not p or not c:
            continue
        pm, pq1, pq3 = quartiles(p)
        cm, cq1, cq3 = quartiles(c)
        if m["better"] == "lower":
            worse = cm > pm and cm > pq3 and cm > pm * (1 + m["bound"])
        else:
            worse = cm < pm and cm < pq1 and cm < pm * (1 - m["bound"])
        change = (cm - pm) / pm * 100 if pm else 0.0
        flag = "  WORSE beyond bound" if worse else ""
        print(f"  {name:24} parent {pm:g} [{pq1:g}, {pq3:g}]  "
              f"change {cm:g} [{cq1:g}, {cq3:g}]  ({change:+.1f} %){flag}")
        if worse:
            bad.append(f"{workload} {name}: {pm:g} -> {cm:g} (bound {m['bound']:.0%})")
    print()

for b in bad:
    print(f"ab: {b}", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
