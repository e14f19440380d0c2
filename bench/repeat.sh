#!/usr/bin/env bash
# Repeatability check of unchanged code, as the benchmark's contract applies
# it: the module's tests, then two sets of ten runs per workload at the
# run_seconds of BENCHMARK.json, every run with another seed. Prints, per
# workload and end-to-end metric, both sets' medians, how much worse the
# second is than the first, each set's quartile spread (Q3-Q1 of
# statistics.quantiles(n=4) over the median), the bound of BENCHMARK.json and
# a third of it.
#
# A worsening above the bound, or a spread above the bound (setup_s
# excepted), is what the contract refuses: FAIL, and the exit status is
# non-zero. A spread above a third of the bound misses the target the
# contract sets the builder: WIDE, listed under the verdict.
#
#   bench/repeat.sh [workload ...] > bench/REPEATABILITY.md
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs=10
seconds="$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")"
if [ "$#" -eq 0 ]; then set -- serve_unique serve_recurring dp_query dp_build; fi

"$here/run.sh" test >&2

results="$(mktemp "$root/.bench_build/repeat.XXXXXX")"
trap 'rm -f "$results"' EXIT
for set in 1 2; do
	for w in "$@"; do
		for i in $(seq 1 "$runs"); do
			seed=$(((set - 1) * runs + i))
			# A run that exits non-zero still prints its result when it got
			# as far as measuring; a run that printed none is counted below.
			line="$("$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)" || true
			echo "set $set $w seed $seed: $line" >&2
			case "$line" in
			"{"*) printf '{"set": %d, "workload": "%s", "seed": %d, "result": %s}\n' "$set" "$w" "$seed" "$line" >>"$results" ;;
			*) printf '{"set": %d, "workload": "%s", "seed": %d, "result": null}\n' "$set" "$w" "$seed" >>"$results" ;;
			esac
		done
	done
done

python3 - "$root/BENCHMARK.json" "$results" "$runs" "$seconds" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
rows = [json.loads(l) for l in open(sys.argv[2])]
runs, seconds = sys.argv[3], sys.argv[4]
broken = [r for r in rows if r["result"] is None or not r["result"]["correct"]]
rows = [r for r in rows if r["result"] is not None]
failed, wide = [], []

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

print("# Repeatability of unchanged code\n")
print(f"Two sets of {runs} runs per workload, `--seconds {seconds} --trace 0`, every run with another seed")
print(f"(set 1: seeds 1 to {runs}, set 2: the next {runs}). `worse` is how much worse the second set's median")
print("is than the first's, as a share of the first's; `spread` is Q3-Q1 over the median.")
print("FAIL: a worsening above the bound, or a spread above it (setup_s excepted), which the")
print("benchmark's contract refuses. WIDE: a spread above a third of the bound, the target the")
print("contract sets; see *The bounds* in README.md for why some stay above it.\n")
workloads = [w["name"] for w in spec["workloads"] if any(r["workload"] == w["name"] for r in rows)]
for w in workloads:
    print(f"## {w}\n")
    print("| metric | unit | median 1 | median 2 | worse | spread 1 | spread 2 | bound | a third | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for m in spec["end_to_end"]:
        sets = [[r["result"]["metrics"][m["name"]]["value"] for r in rows if r["workload"] == w and r["set"] == s] for s in (1, 2)]
        med = [statistics.median(v) for v in sets]
        worse = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
        spreads = [spread(v) for v in sets]
        verdict = "ok"
        if m["name"] != "setup_s" and max(spreads) > m["bound"] / 3:
            verdict = "WIDE"
        if worse > m["bound"] or (m["name"] != "setup_s" and max(spreads) > m["bound"]):
            verdict = "FAIL"
        if verdict == "FAIL":
            failed.append(f"{w} {m['name']}")
        elif verdict == "WIDE":
            wide.append(f"{w} {m['name']}")
        print(f"| {m['name']} | {m['unit']} | {med[0]:.6g} | {med[1]:.6g} | {worse:+.2%} | {spreads[0]:.2%} | {spreads[1]:.2%} | {m['bound']:.0%} | {m['bound'] / 3:.1%} | {verdict} |")
    print()
if broken:
    print("Runs that printed no result or reported wrong outputs: " + ", ".join(f"{r['workload']} seed {r['seed']}" for r in broken) + ".")
else:
    print("Every run verified its outputs.")
print()
checked = len(workloads) * len(spec["end_to_end"])
if broken or failed:
    if failed:
        print("Refused by the contract: " + ", ".join(failed) + ".\n")
    print("Verdict: NOT repeatable within the bounds.")
elif wide:
    print(f"Verdict: within the bounds on all {checked} pairs of workload and metric, but {len(wide)} of them spread wider")
    print("than a third of their bound: " + ", ".join(wide) + ".")
else:
    print(f"Verdict: repeatable, all {checked} pairs of workload and metric within a third of their bounds.")
sys.exit(1 if broken or failed else 0)
EOF
