#!/bin/sh
# loadgen_smoke.sh — end-to-end smoke of the admission pipeline: build
# idxflow-server with the race detector, drive a short concurrent burst
# through idxflow-loadgen, and require a clean accounting audit with a
# non-zero admitted count.
#
# Usage:
#   scripts/loadgen_smoke.sh [submissions] [tenants]   (default 160 across 4)
set -eu

cd "$(dirname "$0")/.."

N="${1:-160}"
TENANTS="${2:-4}"
ADDR="127.0.0.1:18091"
BIN=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

echo "== build (server with -race) =="
go build -race -o "$BIN/idxflow-server" ./cmd/idxflow-server
go build -o "$BIN/idxflow-loadgen" ./cmd/idxflow-loadgen

echo "== start server =="
"$BIN/idxflow-server" -addr "$ADDR" -workers 4 -queue 64 \
	-tenant-inflight 16 -fleet 16 > "$BIN/server.log" 2>&1 &
SERVER_PID=$!

# Wait for the listener (the race-instrumented binary starts slowly).
i=0
until "$BIN/idxflow-loadgen" -addr "http://$ADDR" -tenants 1 -n 1 -conns 1 \
	>/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -ge 50 ]; then
		echo "server never came up:" >&2
		cat "$BIN/server.log" >&2
		exit 1
	fi
	sleep 0.2
done

echo "== loadgen burst ($N submissions, $TENANTS tenants) =="
mkdir -p artifacts
# -audit fails the run on any accounting violation; -min-admitted requires
# every submission (closed loop retries 429s) to have been admitted.
"$BIN/idxflow-loadgen" -addr "http://$ADDR" -tenants "$TENANTS" -n "$N" \
	-conns 16 -audit -min-admitted "$N" -json artifacts/loadgen_smoke.json

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || {
	echo "server exited non-zero:" >&2
	cat "$BIN/server.log" >&2
	exit 1
}
# The race detector reports to stderr and (with default halt_on_error=0)
# exits 66 only at the end; grep so a report can never slip through.
if grep -q "WARNING: DATA RACE" "$BIN/server.log"; then
	echo "data race detected:" >&2
	cat "$BIN/server.log" >&2
	exit 1
fi

echo "loadgen smoke passed."
