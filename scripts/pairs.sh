#!/usr/bin/env bash
# pairs.sh — alternating parent/change runs of one benchmark workload.
#
#   scripts/pairs.sh <parent-rev> <workload> <seed> [<seed> ...]
#   scripts/pairs.sh --summarize <PAIRS file> <workload>
#
# The change is this checkout's working tree; the parent is <parent-rev>,
# exported with `git archive` into a temporary directory (which leaves the
# repository's .git untouched) and built there from source by its own
# bench/run.sh. For every seed both sides run `bench/run.sh --workload
# <workload> --seed <seed> --seconds <run_seconds of BENCHMARK.json>
# --trace 0`, the parent first on the 1st, 3rd, ... seed and the change
# first on the others, so drift on the box does not favour one side.
#
# Every run's result is stored in PAIRS_PR<k>.json at the root of the
# checkout, k being the number of the newest BENCH_PR<k>.json ledger (a PR
# adds its ledger first). Runs of other workloads and seeds already in the
# file are kept, so one file collects a PR's pairs across calls, and a
# workload/seed pair that runs again replaces its old runs.
#
# It then prints, per metric, each side's median [Q1, Q3] over every run of
# the workload in the file, how many of the n seeds the change won (was
# strictly better on, in the direction BENCHMARK.json gives) and a verdict
# (the rule is stated once, in verdict() below). It exits non-zero when a
# run printed no result, reported wrong outputs or failed operations, or
# when outcome_per_op differs between the sides on any seed.
#
# --summarize runs nothing: it prints the same table from a stored PAIRS
# file, so a verdict can be re-read, and checked, without the parent tree.
set -euo pipefail

usage() {
	echo "usage: scripts/pairs.sh <parent-rev> <workload> <seed> [<seed> ...]" >&2
	echo "       scripts/pairs.sh --summarize <PAIRS file> <workload>" >&2
	exit 2
}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# summarize <BENCHMARK.json> <PAIRS file> <workload> [<new runs.jsonl> <parent>]
# merges the new runs into the PAIRS file when given, then prints the table.
summarize() {
	python3 - "$@" <<'EOF'
import json, os, statistics, sys

spec_path, pairs_path, workload = sys.argv[1:4]
spec = json.load(open(spec_path))
doc = json.load(open(pairs_path)) if os.path.exists(pairs_path) else {"runs": []}
if len(sys.argv) > 4:
    runs_path, parent = sys.argv[4:]
    new = [json.loads(l) for l in open(runs_path)]
    for r in new:
        r["parent"] = parent
    redone = {(r["workload"], r["seed"]) for r in new}
    doc["runs"] = [r for r in doc["runs"] if (r["workload"], r["seed"]) not in redone] + new
    with open(pairs_path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")

runs = [r for r in doc["runs"] if r["workload"] == workload]
seeds = sorted({r["seed"] for r in runs})
side = {(r["seed"], r["side"]): r["result"] for r in runs}
bad = []
for s in seeds:
    for sd in ("parent", "change"):
        res = side.get((s, sd))
        if res is None:
            bad.append(f"seed {s} {sd}: no result")
        elif not res["correct"] or res["failed"] > 0:
            bad.append(f"seed {s} {sd}: correct={res['correct']} failed={res['failed']}")
paired = [s for s in seeds if side.get((s, "parent")) and side.get((s, "change"))]

def value(s, sd, m):
    return side[(s, sd)]["metrics"][m]["value"]

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3

def verdict(parent, change, wins, n, bound, sign):
    """The one verdict rule. parent and change are (Q1, median, Q3); sign
    is +1 when higher is better; bound is the metric's BENCHMARK.json bound
    as a fraction of the parent's median.
      improved:     >= 10 pairs, >= 9/10 of them won, and the medians
                    differ, in the change's favour, by more than the
                    parent's IQR;
      unresolved:   the parent's IQR is wider than the bound, so a move
                    inside it cannot be told from noise;
      regressed:    the change's median is worse by more than the bound;
      unresolved:   the change's median is better but fewer than 10 pairs
                    favour it, too few to claim the gain;
      inside noise: anything else."""
    (p1, pm, p3), (_, cm, _) = parent, change
    gap = sign * (cm - pm)
    if n >= 10 and wins >= 0.9 * n and gap > p3 - p1:
        return "improved"
    if p3 - p1 > bound * abs(pm):
        return "unresolved"
    if -gap > bound * abs(pm):
        return "regressed"
    if gap > 0 and wins < 10:
        return "unresolved"
    return "inside noise"

parents = sorted({r["parent"][:12] for r in runs if r["seed"] in paired})
print(f"{workload}: {len(paired)} pairs, parent {' '.join(parents)} vs change, seeds {' '.join(map(str, paired))}")
print(f"{'metric':<16} {'parent median [Q1, Q3]':>30} {'change median [Q1, Q3]':>30}  wins  verdict")
for m in spec["end_to_end"]:
    name = m["name"]
    if not paired or name not in side[(paired[0], "parent")]["metrics"]:
        continue
    q = {sd: quartiles([value(s, sd, name) for s in paired]) for sd in ("parent", "change")}
    cols = [f"{q[sd][1]:.4g} [{q[sd][0]:.4g}, {q[sd][2]:.4g}]" for sd in ("parent", "change")]
    sign = 1 if m["better"] == "higher" else -1
    wins = sum(1 for s in paired if sign * (value(s, "change", name) - value(s, "parent", name)) > 0)
    v = verdict(q["parent"], q["change"], wins, len(paired), m["bound"], sign)
    print(f"{name:<16} {cols[0]:>30} {cols[1]:>30}  {f'{wins}/{len(paired)}':>4}  {v}")
    if name == "outcome_per_op":
        bad += [f"seed {s}: outcome_per_op {value(s, 'parent', name)} (parent) vs {value(s, 'change', name)} (change)"
                for s in paired if value(s, "parent", name) != value(s, "change", name)]
if len(sys.argv) > 4:
    print(f"runs stored in {pairs_path}")
if bad:
    print("FAIL: " + "; ".join(bad))
    sys.exit(1)
EOF
}

if [ "${1:-}" = "--summarize" ]; then
	[ "$#" -eq 3 ] || usage
	summarize "$root/BENCHMARK.json" "$2" "$3"
	exit 0
fi
[ "$#" -ge 3 ] || usage
parent="$(git -C "$root" rev-parse --verify "$1^{commit}")"
workload="$2"
shift 2
out="$root/PAIRS_PR$("$root/scripts/bench_latest.sh" | sed 's/^BENCH_PR\([0-9]*\)\.json$/\1/').json"
seconds="$(python3 -c "import json, sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$root/BENCHMARK.json")"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"

# run <side> <tree> <seed> <ran-first> appends one JSON line to the run log.
run() {
	local line
	echo "pairs.sh: $workload seed $3, $1" >&2
	# A run that exits non-zero still prints its result when it got as far
	# as measuring; one that printed none is recorded as null.
	line="$("$2/bench/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)" || true
	case "$line" in
	"{"*) ;;
	*) line=null ;;
	esac
	printf '{"workload": "%s", "seed": %d, "side": "%s", "first": %s, "result": %s}\n' \
		"$workload" "$3" "$1" "$4" "$line" >>"$tmp/runs.jsonl"
}

i=0
for seed in "$@"; do
	if [ $((i % 2)) -eq 0 ]; then
		run parent "$tmp/parent" "$seed" true
		run change "$root" "$seed" false
	else
		run change "$root" "$seed" true
		run parent "$tmp/parent" "$seed" false
	fi
	i=$((i + 1))
done

summarize "$root/BENCHMARK.json" "$out" "$workload" "$tmp/runs.jsonl" "$parent"
