#!/bin/sh
# bench_compare.sh — diff two bench.sh JSON summaries. The gate is
# allocs/op: single-goroutine benchmarks repeat it exactly from run to run,
# so any benchmark whose allocs/op rose by more than the threshold (default
# 1%, or from zero) fails the comparison. ns/op and B/op deltas are printed
# as advisory only (B/op is "-" when the baseline predates the field): on a
# shared box untouched code drifts past any useful timing threshold within
# hours (PR 14 measured 20 untouched benchmarks >15% off a two-hour-old
# snapshot while their allocs/op were exact); timing claims go through
# bench/run.sh, which normalises by a host-kernel sample. Benchmarks in the
# baseline but absent from the current file are listed by name, not skipped.
#
# Usage:
#   scripts/bench_compare.sh BASELINE.json CURRENT.json [allocs-threshold-pct]
set -eu

cd "$(dirname "$0")/.."

BASE="${1:?usage: bench_compare.sh BASELINE.json CURRENT.json [allocs-threshold-pct]}"
CURR="${2:?usage: bench_compare.sh BASELINE.json CURRENT.json [allocs-threshold-pct]}"
THRESH="${3:-1}"

for f in "$BASE" "$CURR"; do
	if [ ! -f "$f" ]; then
		echo "bench_compare: $f not found (run scripts/bench.sh first)" >&2
		exit 2
	fi
done

# bench.sh emits one {"name": ..., "ns_per_op": ..., "bytes_per_op": ...,
# "allocs_per_op": ...} object per line, so line-oriented awk is enough — no
# jq dependency.
awk -v thresh="$THRESH" -v basefile="$BASE" -v currfile="$CURR" '
function parse(line, arr) {
	if (match(line, /"name": *"[^"]*"/) == 0) return 0
	arr["name"] = substr(line, RSTART, RLENGTH)
	sub(/"name": *"/, "", arr["name"]); sub(/"$/, "", arr["name"])
	if (match(line, /"ns_per_op": *[0-9.eE+-]+/) == 0) return 0
	arr["ns"] = substr(line, RSTART, RLENGTH); sub(/.*: */, "", arr["ns"])
	if (match(line, /"allocs_per_op": *[0-9.eE+-]+/) == 0) return 0
	arr["allocs"] = substr(line, RSTART, RLENGTH); sub(/.*: */, "", arr["allocs"])
	arr["bytes"] = ""
	if (match(line, /"bytes_per_op": *[0-9.eE+-]+/)) {
		arr["bytes"] = substr(line, RSTART, RLENGTH); sub(/.*: */, "", arr["bytes"])
	}
	return 1
}
BEGIN {
	while ((getline line < basefile) > 0)
		if (parse(line, b)) { base_ns[b["name"]] = b["ns"]; base_al[b["name"]] = b["allocs"]; base_by[b["name"]] = b["bytes"]; border[++nb] = b["name"] }
	close(basefile)
	while ((getline line < currfile) > 0)
		if (parse(line, c)) { curr_ns[c["name"]] = c["ns"]; curr_al[c["name"]] = c["allocs"]; curr_by[c["name"]] = c["bytes"]; order[++n] = c["name"] }
	close(currfile)

	printf "%-40s %15s %15s %9s %9s %12s %12s %9s\n", "benchmark", "base ns/op", "curr ns/op", "Δns%", "ΔB/op%", "base allocs", "curr allocs", "Δallocs%"
	bad = 0
	for (i = 1; i <= n; i++) {
		name = order[i]
		if (!(name in base_ns)) continue
		dns = 0; dal = 0
		if (base_ns[name] + 0 > 0) dns = (curr_ns[name] - base_ns[name]) / base_ns[name] * 100
		if (base_al[name] + 0 > 0) dal = (curr_al[name] - base_al[name]) / base_al[name] * 100
		dby = "-"
		if (base_by[name] != "" && curr_by[name] != "" && base_by[name] + 0 > 0)
			dby = sprintf("%.1f%%", (curr_by[name] - base_by[name]) / base_by[name] * 100)
		flag = ""
		if (dal > thresh || (base_al[name] + 0 == 0 && curr_al[name] + 0 > 0)) { flag = "  << ALLOCS REGRESSION"; bad++ }
		printf "%-40s %15.0f %15.0f %8.1f%% %9s %12.0f %12.0f %8.1f%%%s\n",
			name, base_ns[name], curr_ns[name], dns, dby, base_al[name], curr_al[name], dal, flag
	}
	missing = 0
	for (i = 1; i <= nb; i++)
		if (!(border[i] in curr_ns)) {
			if (!missing++) printf "\nin %s but not in %s:\n", basefile, currfile
			printf "  %s\n", border[i]
		}
	if (bad) {
		printf "\n%d benchmark(s) raised allocs/op by more than %s%% vs %s\n", bad, thresh, basefile
		exit 1
	}
	printf "\nno allocs/op regression beyond %s%% vs %s (ns/op and B/op are advisory)\n", thresh, basefile
}
' </dev/null
