#!/bin/sh
# bench_latest.sh — print the Nth newest BENCH_PR<k>.json ledger file in the
# checkout, ordered by PR number k (default N=1, the newest). bench.sh
# refreshes the newest by default and `make bench-compare` gates it against
# the one before, so adding BENCH_PR<k+1>.json is all a PR does to roll the
# ledger forward. Exits non-zero when there are fewer than N files.
set -eu

cd "$(dirname "$0")/.."

n="${1:-1}"
f=$(ls BENCH_PR*.json 2>/dev/null |
	sed -n 's/^BENCH_PR\([0-9][0-9]*\)\.json$/\1/p' |
	sort -rn | sed -n "${n}p")
if [ -z "$f" ]; then
	echo "bench_latest: fewer than $n BENCH_PR*.json files in $(pwd)" >&2
	exit 1
fi
echo "BENCH_PR$f.json"
