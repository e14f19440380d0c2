#!/bin/sh
# ci.sh — every check CI runs, runnable locally. The checks are grouped in
# stages; the workflow (.github/workflows/ci.yml) runs one stage per job, so
# no check exists in only one place.
#
#   scripts/ci.sh                 every stage, in order
#   scripts/ci.sh <stage> ...     the named stages
#
# Stages: static driver test bench race provenance loadgen table6.
# cover, the first half of test (the suite and its coverage gate, no
# fuzzing), can be named alone; `make cover` runs it.
set -eu

cd "$(dirname "$0")/.."

stages="static driver test bench race provenance loadgen table6"

# static: formatting, vet, build, reachability and the greps that pin the
# design, plus the pair runner's verdicts re-read from stored runs.
stage_static() {
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

	# No internal package, and no function in one, may be reachable only
	# from an example or its own tests (ROADMAP aim 2); what stays for a
	# test's sake is named with its reason in scripts/reachability_allow.txt.
	echo "== reachability =="
	scripts/reachability.sh

	# The pair runner's verdict rule, re-read from stored runs: a change to
	# the rule or the table shows here as a diff against the recorded
	# summary.
	echo "== pairs.sh verdicts on PAIRS_PR26.json =="
	for w in serve_unique serve_recurring dp_query dp_build; do
		scripts/pairs.sh --summarize PAIRS_PR26.json "$w"
	done | diff -u scripts/testdata/pairs_PR26.txt -

	# A test, benchmark or fuzz target the docs (the verify skill included)
	# cite must exist. A cited name only has to be a prefix of a defined
	# one, so a -bench pattern and a name wrapped at a line end both pass.
	echo "== test names cited in the docs exist =="
	defined=$(grep -rhoE --include='*_test.go' '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' . | sed 's/^func //' | sort -u)
	missing=""
	for name in $(grep -ohE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' \
		DESIGN.md README.md EXPERIMENTS.md bench/README.md .[!.]*/skills/verify/SKILL.md | sort -u); do
		printf '%s\n' "$defined" | grep -q "^$name" || missing="$missing $name"
	done
	if [ -n "$missing" ]; then
		echo "cited in the docs but defined in no _test.go:$missing"
		exit 1
	fi

	# `make fuzz-short`, which the workflow's fuzz job runs, lists every
	# fuzz target by hand: a new one must join it.
	echo "== make fuzz-short runs every fuzz target =="
	missing=""
	for name in $(grep -rhoE --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*' . | sed 's/^func //' | sort -u); do
		grep -qF "'^$name\$\$'" Makefile || missing="$missing $name"
	done
	if [ -n "$missing" ]; then
		echo "fuzz targets missing from make fuzz-short:$missing"
		exit 1
	fi

	# One Algorithm-1 pass runs on one goroutine: the admission pipeline's
	# -workers is the only concurrency of a submit.
	echo "== Alg. 1 path starts no goroutine =="
	if grep -rn --include='*.go' --exclude='*_test.go' 'go func' internal/sched internal/interleave internal/core internal/gain internal/sim; then exit 1; fi

	# A service's Config is read-only after NewService: what is true for one
	# submit only lives in its pass, not in the service's configuration.
	echo "== internal/core never assigns through s.cfg =="
	if grep -nE '\bs\.cfg\.[A-Za-z.]+ *=[^=]' $(ls internal/core/*.go | grep -v _test.go); then exit 1; fi

	# The registry is shared by every tenant of a server, so a family in it
	# must add up across tenants: internal/core registers no gauge, and one
	# service's clock, index count and footprint are served per tenant by
	# GET /v1/metrics instead.
	echo "== internal/core registers no gauge =="
	if grep -nE '\.Gauge(Vec)?\(' $(ls internal/core/*.go | grep -v _test.go); then exit 1; fi

	# The pass reports what its stages did: the stages return what they
	# decided, and only internal/core opens spans (a root with
	# Tracer.StartSpan, a child with Span.StartSpan: the grep matches both),
	# appends provenance events and updates metrics. The gain model, the storage meter, the
	# interleaving algorithms, the scheduler and the executor bind no metric;
	# the executor's provenance events travel in its Result.
	echo "== spans and provenance events are recorded by the pass =="
	if grep -rnE --include='*.go' --exclude='*_test.go' '\.StartSpan\(|Provenance\.Append\(' internal |
		grep -vE '^internal/(core|telemetry|provenance)/'; then exit 1; fi
	echo "== internal/gain, cloud, interleave and sched import neither provenance nor telemetry =="
	if go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./internal/gain ./internal/cloud ./internal/interleave ./internal/sched |
		grep -E 'idxflow/internal/(provenance|telemetry)( |$)'; then exit 1; fi
	echo "== internal/sim imports no telemetry =="
	if go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./internal/sim |
		grep -E 'idxflow/internal/telemetry( |$)'; then exit 1; fi
	echo "== internal/pagestore imports no bptree =="
	if go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./internal/pagestore |
		grep -E 'idxflow/internal/bptree( |$)'; then exit 1; fi
}

# driver: bench/ is a module of its own that `./...` does not reach; its vet
# and tests compile the frozen benchmark driver against this checkout, so a
# signature it uses cannot drift unnoticed until benchmark time.
stage_driver() {
	echo "== benchmark driver (bench/run.sh test) =="
	bench/run.sh test
}

# cover: the whole suite, with a coverage gate.
stage_cover() {
	echo "== go test (with coverage) =="
	go test -coverprofile=coverage.out ./...
	total=$(go tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $NF); print $NF }')
	baseline=$(cat scripts/coverage_baseline.txt)
	echo "total coverage: ${total}% (baseline ${baseline}%)"
	if ! awk -v t="$total" -v b="$baseline" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }'; then
		echo "coverage ${total}% fell below the ${baseline}% baseline (scripts/coverage_baseline.txt)"
		exit 1
	fi
}

# test: cover, then the fuzz targets past their corpora and the synctest
# bubbles.
stage_test() {
	stage_cover

	# The skyline's exactness arguments (the read-only probe and the running
	# books against make, the pre-filtered Pareto filter against the
	# unfiltered one, cold and warm frontiers audited and held to the
	# reference skyline), the executor's equivalence with the preserved
	# seed executor under generated faults and the vectorized operators'
	# equivalence with exec's scalar ones, the hash index's with the Go
	# map and the page file's run I/O against its model are fuzzed past
	# their seed corpora.
	echo "== fuzz (5 s each) =="
	go test ./internal/sched -run '^$' -fuzz '^FuzzProbeEqualsApply$' -fuzztime 5s
	go test ./internal/sched -run '^$' -fuzz '^FuzzParetoPrefilter$' -fuzztime 5s
	go test ./internal/check -run '^$' -fuzz '^FuzzSkyline$' -fuzztime 5s
	go test ./internal/check -run '^$' -fuzz '^FuzzWarmFrontier$' -fuzztime 5s
	go test ./internal/check -run '^$' -fuzz '^FuzzVectorizedEqualsScalar$' -fuzztime 5s -fuzzminimizetime 50x
	go test ./internal/sim -run '^$' -fuzz '^FuzzExecuteEqualsReference$' -fuzztime 5s
	go test ./internal/exec -run '^$' -fuzz '^FuzzHashIndexMatchesMap$' -fuzztime 5s
	go test ./internal/pagestore -run '^$' -fuzz '^FuzzFileRuns$' -fuzztime 5s

	# The admission pipeline's ordering tests in testing/synctest bubbles
	# (internal/qaas/bubble_test.go), which Go 1.24 builds only under the
	# synctest experiment, so the plain suite above skips them.
	echo "== synctest bubbles (1000 runs) =="
	GOEXPERIMENT=synctest go test -run Bubble -count=1000 ./internal/qaas
}

# bench: every Benchmark* runs once, so none of them rots.
stage_bench() {
	echo "== benchmarks (short) =="
	scripts/bench.sh -short /dev/null
}

# race: the admission pipeline, the experiment fan-out and the extsort
# workers are concurrent; the race detector runs as its own pass, in short
# mode to keep the instrumented run fast. The pass includes internal/core's
# TestBenchShapedStream (the pinned 525-flow outcome digest and the
# windowed-gain-history soak), which -short does not skip, and the golden
# cold-vs-warm equivalence suites. -short does skip the golden experiment
# tables and the sim transcript under cmd/: the test stage runs them.
stage_race() {
	echo "== go test -race -short =="
	go test -race -short ./...
}

# provenance: the sim with the flight recorder on must succeed, explain
# itself, and write a parseable provenance log; the random generator's
# stock run (about 35,000 events) must write a complete one, whose header
# total is its number of event lines. The logs, the Chrome trace and the
# transcript land in artifacts/ for CI upload.
stage_provenance() {
	echo "== provenance smoke run =="
	mkdir -p artifacts
	go run ./cmd/idxflow-sim -horizon 120 -events artifacts/events.jsonl \
		-trace artifacts/trace.json -explain >artifacts/explain.txt
	head -c 200 artifacts/events.jsonl | grep -q '"format":"idxflow-events/1"' || {
		echo "events.jsonl missing the idxflow-events/1 header"
		exit 1
	}
	echo "== the random generator's event log is complete =="
	go run ./cmd/idxflow-sim -generator random -events artifacts/events_random.jsonl >/dev/null
	total=$(head -n 1 artifacts/events_random.jsonl | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
	lines=$(tail -n +2 artifacts/events_random.jsonl | wc -l)
	[ -n "$total" ] && [ "$total" -eq "$lines" ] || {
		echo "events_random.jsonl: header total ${total:-missing}, $lines event lines"
		exit 1
	}
}

# loadgen: race-built server, concurrent multi-tenant burst, clean
# accounting audit required (summary in artifacts/loadgen_smoke.json).
stage_loadgen() {
	echo "== loadgen smoke =="
	scripts/loadgen_smoke.sh
}

# table6: the vectorized engine at scale 0.1 (~600k rows). The run fails if
# any scalar/vectorized/index cross-check or the equivalence auditor fails.
stage_table6() {
	echo "== table6 smoke (scale 0.1) =="
	go run ./cmd/idxflow-experiments -exp table6 -scale 0.1 >/dev/null
}

if [ "$#" -eq 0 ]; then
	# shellcheck disable=SC2086  # one word per stage
	set -- $stages
fi
for stage in "$@"; do
	case " $stages cover " in
	*" $stage "*) "stage_$stage" ;;
	*)
		echo "ci.sh: unknown stage $stage (stages: $stages cover)" >&2
		exit 2
		;;
	esac
done
echo "CI checks passed: $*"
