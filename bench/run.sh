#!/usr/bin/env bash
# Builds the benchmark driver and the server from source and runs one
# workload. Everything it writes stays inside the checkout: binaries, the Go
# build cache and page files under .bench_build/, traces under bench/out/.
#
#   bench/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#   bench/run.sh <name> [--seed N] ...     the same
#   bench/run.sh all [--seed N] ...        every workload in turn
#   bench/run.sh test                      go vet and go test of this module
#
# Workloads: serve_unique serve_recurring dp_query dp_build. The last line
# of standard output is the result as one JSON object. Exits non-zero when
# the build fails, an output is wrong or a validity gate does not hold.
#
# This directory is a module of its own, which the repository's
# `go build ./... && go test ./...` does not see. Every run therefore vets
# the module before it builds it, so that a change to a signature the driver
# or its tests use fails here at once, and `test` runs the module's tests.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

# Both cores to the driver and, through it, to the server child: with idle
# cores, GC mark workers and sched.ParallelFor inflate CPU per op.
GOMAXPROCS="$(nproc)"
export GOMAXPROCS
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
# The Go tool's work directories and counter files and the tests' temporary
# files stay in the checkout too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"

case "${1:-}" in
all)
	shift
	for w in serve_unique serve_recurring dp_query dp_build; do
		"${BASH_SOURCE[0]}" --workload "$w" "$@"
	done
	exit 0
	;;
test)
	cd "$here"
	go vet ./...
	exec go test ./...
	;;
-* | "") ;;
*) set -- --workload "$@" ;;
esac

mkdir -p "$build/bin"
(
	cd "$here"
	go vet ./...
	go build -o "$build/bin/idxflow-bench" ./cmd/idxflow-bench
	go build -o "$build/bin/idxflow-server" idxflow/cmd/idxflow-server
) >&2

# The run's own directory holds its page files and a link to the server
# binary: the link's path is what identifies this run's server processes.
run="$(mktemp -d "$build/run.XXXXXX")"
server="$run/idxflow-server"
driver=""
cleanup() {
	status=$?
	trap - EXIT INT TERM
	if [ -n "$driver" ]; then kill "$driver" 2>/dev/null || true; fi
	pkill -KILL -f "^$server " 2>/dev/null || true
	rm -rf "$run"
	if pgrep -f "^$server " >/dev/null 2>&1; then
		echo "bench/run.sh: an idxflow-server process survived the run" >&2
		status=1
	fi
	exit "$status"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
ln "$build/bin/idxflow-server" "$server" 2>/dev/null || cp "$build/bin/idxflow-server" "$server"

"$build/bin/idxflow-bench" -server "$server" -tmp "$run" -out "$here/out" "$@" &
driver=$!
wait "$driver"
