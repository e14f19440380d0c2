GO ?= go

.PHONY: all build test race race-short vet ci cover fuzz-short golden-update unreached bench bench-short bench-compare profile clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

race-short:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# Run the test suite with a coverage profile and fail if total statement
# coverage drops below the committed baseline (scripts/coverage_baseline.txt):
# the first half of CI's test stage, without its fuzzing.
cover:
	scripts/ci.sh cover

# Short fuzzing pass: each target explores new inputs for FUZZ_SECONDS on
# top of the committed corpora under testdata/fuzz (which replay as plain
# tests in every `go test` run). Go allows one -fuzz pattern per
# invocation, so each target runs separately, and `scripts/ci.sh static`
# fails when a Fuzz function is missing here. See README "Testing &
# verification" for the long-running variant.
FUZZ_SECONDS ?= 5
fuzz-short:
	$(GO) test ./internal/bptree -run '^$$' -fuzz '^FuzzTreeAgainstMap$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/exec -run '^$$' -fuzz '^FuzzHashIndexMatchesMap$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/flowlang -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/flowlang -run '^$$' -fuzz '^FuzzParseEqualsReference$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/check -run '^$$' -fuzz '^FuzzExecute$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/check -run '^$$' -fuzz '^FuzzSkyline$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/check -run '^$$' -fuzz '^FuzzInterleave$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/check -run '^$$' -fuzz '^FuzzGainWindow$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/check -run '^$$' -fuzz '^FuzzWarmFrontier$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/check -run '^$$' -fuzz '^FuzzVectorizedEqualsScalar$$' -fuzztime $(FUZZ_SECONDS)s -fuzzminimizetime 50x
	$(GO) test ./internal/pagestore -run '^$$' -fuzz '^FuzzColumnPage$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/pagestore -run '^$$' -fuzz '^FuzzFileRuns$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/sched -run '^$$' -fuzz '^FuzzProbeEqualsApply$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/sched -run '^$$' -fuzz '^FuzzParetoPrefilter$$' -fuzztime $(FUZZ_SECONDS)s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzExecuteEqualsReference$$' -fuzztime $(FUZZ_SECONDS)s

# Re-record the golden experiment tables and the idxflow-sim -explain
# transcript and -events log under cmd/*/testdata from the current tree. A refactor must pass
# them unedited; run this only when a change is meant to move a table.
golden-update:
	$(GO) test ./cmd/idxflow-experiments -run '^TestGoldenTables$$' -update
	$(GO) test ./cmd/idxflow-sim -run '^TestGolden(ExplainTranscript|EventsJSONL|EventsJSONLFaults)$$' -update

# Print every function under internal/ that no binary links, allowlisted
# (scripts/reachability_allow.txt) or not, without failing;
# scripts/reachability.sh is the failing form CI runs.
unreached:
	@scripts/reachability.sh list

# Every check CI runs but the fuzz job (`make fuzz-short`): scripts/ci.sh
# holds them, one stage per workflow job.
ci:
	scripts/ci.sh

bench:
	scripts/bench.sh

bench-short:
	scripts/bench.sh -short /dev/null

# Compare the newest BENCH_PR<k>.json ledger file (run `make bench` first to
# refresh it) against the one before it; fails when allocs/op rose by more
# than 1% in any shared benchmark, prints ns/op deltas as advisory, and names
# the benchmarks that left the ledger. Then print the pair runner's table for
# every workload in the newest PAIRS_PR<k>.json, without failing on it.
bench-compare:
	scripts/bench_compare.sh "$$(scripts/bench_latest.sh 2)" "$$(scripts/bench_latest.sh 1)"
	@pairs="$$(scripts/bench_latest.sh 1 PAIRS_PR)" || exit 0; \
	for w in $$(python3 -c 'import json, sys; print(" ".join(dict.fromkeys(r["workload"] for r in json.load(open(sys.argv[1]))["runs"])))' "$$pairs"); do \
		scripts/pairs.sh --summarize "$$pairs" "$$w" || true; \
	done

# Profile the experiment driver end to end; see README "Profiling" for how
# to read the output. PROFILE_ARGS selects the workload (default fig6).
PROFILE_ARGS ?= -exp fig6
profile: build
	$(GO) run ./cmd/idxflow-experiments $(PROFILE_ARGS) -cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof; inspect with:"
	@echo "  go tool pprof -top cpu.prof"
	@echo "  go tool pprof -top -sample_index=alloc_objects mem.prof"

clean:
	$(GO) clean ./...
