#!/bin/sh
# ci.sh — the checks CI runs, runnable locally: gofmt, vet, build, tests
# with a coverage gate, race tests.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# No internal package, and no function in one, may be reachable only from
# an example or its own tests (ROADMAP aim 2); what stays for a test's sake
# is named with its reason in scripts/reachability_allow.txt.
echo "== reachability =="
scripts/reachability.sh

# The pair runner's verdict rule, re-read from stored runs: a change to the
# rule or the table shows here as a diff against the recorded summary.
echo "== pairs.sh verdicts on PAIRS_PR26.json =="
for w in serve_unique serve_recurring dp_query dp_build; do
	scripts/pairs.sh --summarize PAIRS_PR26.json "$w"
done | diff -u scripts/testdata/pairs_PR26.txt -

# One Algorithm-1 pass runs on one goroutine: the admission pipeline's
# -workers is the only concurrency of a submit.
echo "== Alg. 1 path starts no goroutine =="
if grep -rn --include='*.go' --exclude='*_test.go' 'go func' internal/sched internal/interleave internal/core internal/gain internal/sim; then exit 1; fi

# A service's Config is read-only after NewService: what is true for one
# submit only lives in its pass, not in the service's configuration.
echo "== internal/core never assigns through s.cfg =="
if grep -nE '\bs\.cfg\.[A-Za-z.]+ *=[^=]' $(ls internal/core/*.go | grep -v _test.go); then exit 1; fi

# bench/ is a module of its own that `./...` does not reach; its vet and
# tests compile the frozen benchmark driver against this checkout, so a
# signature it uses cannot drift unnoticed until benchmark time.
echo "== benchmark driver (bench/run.sh test) =="
bench/run.sh test

echo "== go test (with coverage) =="
go test -coverprofile=coverage.out ./...
total=$(go tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $NF); print $NF }')
baseline=$(cat scripts/coverage_baseline.txt)
echo "total coverage: ${total}% (baseline ${baseline}%)"
if ! awk -v t="$total" -v b="$baseline" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }'; then
	echo "coverage ${total}% fell below the ${baseline}% baseline (scripts/coverage_baseline.txt)"
	exit 1
fi

# The admission pipeline, the experiment fan-out and the extsort workers
# are concurrent; the race detector runs as its own pass, in short mode to
# keep the instrumented run fast. The pass includes internal/core's
# TestBenchShapedStream (the pinned 525-flow outcome digest and the
# windowed-gain-history soak), which -short does not skip, and the golden
# cold-vs-warm equivalence suites. -short does skip the golden experiment
# tables and the sim transcript under cmd/: the plain pass above ran them.
echo "== go test -race -short =="
go test -race -short ./...

# Smoke-run the sim with the flight recorder on: the run must succeed,
# explain itself, and write a parseable provenance log (the JSONL and
# Chrome trace land in artifacts/ for CI upload).
echo "== provenance smoke run =="
mkdir -p artifacts
go run ./cmd/idxflow-sim -horizon 120 -events artifacts/events.jsonl \
	-trace artifacts/trace.json -explain >/dev/null
head -c 200 artifacts/events.jsonl | grep -q '"format":"idxflow-events/1"' || {
	echo "events.jsonl missing the idxflow-events/1 header"
	exit 1
}

# End-to-end serving smoke: race-built server, concurrent multi-tenant burst,
# clean accounting audit required.
echo "== loadgen smoke =="
scripts/loadgen_smoke.sh

# Vectorized-engine smoke: Table 6 at scale 0.1 (~600k rows). The run
# fails if any scalar/vectorized/index cross-check or the equivalence
# auditor fails.
echo "== table6 smoke (scale 0.1) =="
go run ./cmd/idxflow-experiments -exp table6 -scale 0.1 >/dev/null

echo "CI checks passed."
