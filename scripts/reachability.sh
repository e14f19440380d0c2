#!/bin/sh
# reachability.sh — nothing under internal/ that a binary cannot reach, at
# two granularities. The binaries are the commands under cmd/ and the
# benchmark driver (bench/ is a module of its own).
#
# Packages: every package under internal/ is imported by a binary. A
# package only an example or its own tests import is dead weight that still
# has to build, pass vet and hold coverage, so this fails and names it.
#
# Functions: every function declared in a non-test file under internal/ is
# a text symbol of a binary linked with inlining off, or is listed with its
# reason in scripts/reachability_allow.txt (scripts/unreached.go does the
# matching). With `list` as the first argument the unreached functions are
# printed, allowlisted or not, and nothing fails (`make unreached`).
#
# Blind spot: the linker keeps every exported method of a type that is
# converted to an interface, in case a dynamic call reaches it, so such a
# method is a symbol of the binary even when nothing calls it. These edges
# show which methods are kept that way:
#	go build -gcflags=all=-l -ldflags=-dumpdep ./cmd/idxflow-server 2>&1 |
#		grep '<UsedInIface> -> idxflow/internal/'
# Each method listed should implement an interface the program uses
# (String, Error, MarshalJSON, Read, ...). Any other one, e.g.
#	type:*idxflow/internal/provenance.Recorder <UsedInIface> ->
#		idxflow/internal/provenance.(*Recorder).Reset
# is reached only by that edge, is dead all the same, and this script
# cannot tell.
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

mkdir "$tmp/bin"
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/...
(cd bench && GOFLAGS=-mod=readonly go build -gcflags=all=-l -o "$tmp/bin/idxflow-bench" ./cmd/idxflow-bench)
for b in "$tmp"/bin/*; do
	go tool nm "$b"
done > "$tmp/symbols"

list=
if [ "${1:-}" = list ]; then list=-list; fi
go run scripts/unreached.go -allow scripts/reachability_allow.txt $list < "$tmp/symbols"
