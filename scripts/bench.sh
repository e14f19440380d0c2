#!/bin/sh
# bench.sh — run the Benchmark* suite with -benchmem and emit a JSON
# summary (name, ns/op, B/op, allocs/op) to track the performance
# trajectory across PRs.
#
# Full runs repeat every benchmark with -count=3 and keep the minimum
# ns/op, B/op and allocs/op per benchmark: the minimum is the least-noisy
# estimator of the code's intrinsic cost on a shared machine, so PR-to-PR
# comparisons (scripts/bench_compare.sh) don't chase scheduler jitter.
#
# Usage:
#   scripts/bench.sh [output.json]          full run (default: refresh the newest
#                                           BENCH_PR<k>.json; name the next one
#                                           to start a new PR's ledger entry)
#   scripts/bench.sh -short [output.json]   single-iteration smoke run for CI
set -eu

cd "$(dirname "$0")/.."

MODE=full
if [ "${1:-}" = "-short" ]; then
	MODE=short
	shift
fi
OUT="${1:-$(scripts/bench_latest.sh)}"

if [ "$MODE" = "short" ]; then
	# One iteration per benchmark: proves they all still run without
	# spending CI minutes on statistically meaningful timings.
	BENCHFLAGS="-benchtime=1x"
else
	BENCHFLAGS="-count=3"
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# shellcheck disable=SC2086  # BENCHFLAGS is intentionally word-split
go test -bench=. -benchmem $BENCHFLAGS -run='^$' ./... > "$RAW" 2>&1 || {
	status=$?
	cat "$RAW"
	echo "benchmarks failed" >&2
	exit $status
}
cat "$RAW"

# Benchmark output lines look like:
#   BenchmarkName-8   123   456789 ns/op   1024 B/op   17 allocs/op
# With -count=N each benchmark appears N times; keep the minimum of each
# metric per benchmark, in first-appearance order.
awk '
/^Benchmark/ && /ns\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")     ns = $(i-1)
		if ($i == "B/op")      bytes = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	if (ns == "") next
	if (bytes == "") bytes = 0
	if (allocs == "") allocs = 0
	if (!(name in min_ns)) {
		order[++n] = name
		min_ns[name] = ns + 0
		min_by[name] = bytes + 0
		min_al[name] = allocs + 0
	} else {
		if (ns + 0 < min_ns[name]) min_ns[name] = ns + 0
		if (bytes + 0 < min_by[name]) min_by[name] = bytes + 0
		if (allocs + 0 < min_al[name]) min_al[name] = allocs + 0
	}
}
END {
	print "["
	for (i = 1; i <= n; i++) {
		name = order[i]
		printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n",
			name, min_ns[name], min_by[name], min_al[name], (i < n) ? "," : ""
	}
	print "]"
}
' "$RAW" > "$OUT"

echo "wrote $(grep -c '"name"' "$OUT") benchmark results to $OUT"
