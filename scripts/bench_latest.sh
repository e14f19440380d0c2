#!/bin/sh
# bench_latest.sh — print the Nth newest <PREFIX><k>.json ledger file in the
# checkout, ordered by PR number k (default N=1, the newest; default PREFIX
# BENCH_PR). Two ledgers share the scheme: BENCH_PR<k>.json holds the go
# test benchmarks, PAIRS_PR<k>.json the parent/change runs of
# scripts/pairs.sh. bench.sh refreshes the newest BENCH_PR file by default
# and `make bench-compare` gates it against the one before, so adding
# BENCH_PR<k+1>.json is all a PR does to roll the ledger forward. Exits
# non-zero when there are fewer than N files.
#
#   scripts/bench_latest.sh [N [PREFIX]]
set -eu

cd "$(dirname "$0")/.."

n="${1:-1}"
prefix="${2:-BENCH_PR}"
f=$(ls "$prefix"*.json 2>/dev/null |
	sed -n "s/^$prefix\([0-9][0-9]*\)\.json\$/\1/p" |
	sort -rn | sed -n "${n}p")
if [ -z "$f" ]; then
	echo "bench_latest: fewer than $n $prefix*.json files in $(pwd)" >&2
	exit 1
fi
echo "$prefix$f.json"
