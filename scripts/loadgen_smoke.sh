#!/bin/sh
# loadgen_smoke.sh — end-to-end smoke of the admission pipeline: build
# idxflow-server with the race detector, drive a short concurrent burst
# through idxflow-loadgen, and require a clean accounting audit with a
# non-zero admitted count, and /v1/qaas to say how full each tenant's
# provenance ring is (needs curl and jq).
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

# An operator reads off /v1/qaas how far each tenant is from the ring wrap
# that makes /debug/audit refuse its log.
echo "== /v1/qaas reports every tenant's provenance ring occupancy =="
curl -fsS "http://$ADDR/v1/qaas" | jq -e --argjson n "$TENANTS" '
	(.tenants | length) >= $n and all(.tenants[];
		(.provenance_events | type) == "number" and
		(.provenance_capacity | type) == "number" and
		.provenance_events > 0 and .provenance_events <= .provenance_capacity)
' > /dev/null || {
	echo "/v1/qaas: provenance_events/provenance_capacity missing or events > capacity:" >&2
	curl -fsS "http://$ADDR/v1/qaas" >&2
	exit 1
}

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
