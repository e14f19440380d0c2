#!/bin/sh
# reachability.sh — every package under internal/ must be reachable from a
# binary: the commands under cmd/ or the benchmark driver (bench/ is a
# module of its own). A package only an example or its own tests import is
# dead weight that still has to build, pass vet and hold coverage, so this
# fails and names it.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go list ./internal/... | sort > "$tmp/all"
{
	go list -deps ./cmd/...
	(cd bench && GOFLAGS=-mod=readonly go list -deps ./...)
} | grep '^idxflow/internal/' | sort -u > "$tmp/reached"

unreached=$(comm -23 "$tmp/all" "$tmp/reached")
if [ -n "$unreached" ]; then
	echo "internal packages no binary reaches (wire them in or delete them):"
	echo "$unreached"
	exit 1
fi
echo "reachability: all $(wc -l < "$tmp/all" | tr -d ' ') internal packages are reached from cmd/ or bench/."
