// Command idxflow-experiments regenerates the tables and figures of the
// paper's evaluation (§6). By default it runs everything; -exp selects a
// single experiment.
//
// Usage:
//
//	idxflow-experiments [-exp id] [-seed n] [-horizon quanta] [-scale s] [-trials n]
//	                    [-trace out.json] [-events out.jsonl]
//
// With -trace, the package-level tracer is enabled for the whole run and
// the span timeline of every service the experiments construct is written
// as Chrome trace-event JSON at exit. With -events, the package-level
// flight recorder is enabled the same way and the decision-provenance
// event log is written as JSONL at exit; experiments that run strategies
// concurrently interleave their events (sequence order is append order,
// not deterministic across workers).
//
// Experiment ids: params, table4, table5, table6 (scalar vs vectorized vs
// index over disk-backed row and columnar storage with bounded buffer
// pools, every answer cross-checked; -scale sets the lineitem size: the
// default 0.05 is ~300k rows, 5 is ~30M), fig3, fig6, fig7, fig8, fig9,
// fig10, fig11, fig12 (phase workload, includes table7 and fig13), fig14
// (random workload), fault (robustness under injected container crashes,
// spot revocations, storage errors and stragglers; -faults and -fault-seed
// control the sweep), ablation (design-knob sweeps; not in "all"), all.
//
// Exit status: 0 on success, 1 when an experiment fails, 2 for a bad flag or
// an unknown -exp; the profile, trace and event files are complete on every
// one. main_test.go drives run in-process against the tables under testdata/
// (`make golden-update` re-records them).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"idxflow/internal/experiments"
	"idxflow/internal/profiling"
	"idxflow/internal/provenance"
	"idxflow/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command and returns its exit code. Nothing below calls
// os.Exit, so the deferred profile, trace and event-log writers run on every
// path, a failing experiment included.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("idxflow-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment to run: "+idList())
		seed     = fs.Int64("seed", 1, "random seed")
		horizon  = fs.Float64("horizon", 720, "dynamic-experiment horizon in quanta")
		scale    = fs.Float64("scale", 0.05, "TPC-H scale factor of table6's lineitem (0.05 = ~300k rows; paper: 2)")
		trials   = fs.Int("trials", 3, "trials per point for fig6/fig7")
		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON span timeline to this file")
		events   = fs.String("events", "", "write the decision-provenance event log (JSONL) to this file")
		faults   = fs.String("faults", "", "comma-separated fault rates (events/container/quantum) for -exp fault; empty = default sweep")
		faultSd  = fs.Int64("fault-seed", 42, "seed for the generated fault plans of -exp fault")
		parallel = fs.Int("parallelism", 0, "experiment fan-out pool size (0 = NumCPU, 1 = serial); results are identical at any setting")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	defer profiling.Start(*cpuProf, *memProf)()

	experiments.SetParallelism(*parallel)

	if *traceOut != "" {
		// The experiment helpers build their services internally, which
		// default to the package-level tracer; enabling it captures them all.
		tr := telemetry.DefaultTracer()
		tr.SetEnabled(true)
		defer func() {
			if err := profiling.WriteFile(*traceOut, tr.WriteChromeTrace); err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			fmt.Fprintf(stdout, "trace: %d spans -> %s (open in chrome://tracing)\n", tr.Len(), *traceOut)
		}()
	}
	if *events != "" {
		// Same pattern as -trace: the experiment services default to the
		// package-level recorder, so enabling it captures all of them.
		rec := provenance.Default()
		rec.SetEnabled(true)
		defer func() {
			if err := profiling.WriteFile(*events, rec.WriteJSONL); err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			fmt.Fprintf(stdout, "events: %d recorded (%d retained) -> %s\n", rec.Total(), rec.Len(), *events)
		}()
	}

	if !known(*exp) {
		fmt.Fprintf(stderr, "unknown experiment %q\n", *exp)
		return 2
	}
	selected := func(id string) bool {
		i := slices.IndexFunc(experimentIDs, func(e experimentID) bool { return e.id == id })
		return *exp == id || *exp == "all" && !experimentIDs[i].notInAll
	}
	horizonSec := *horizon * 60

	if selected("params") {
		fmt.Fprintln(stdout, experiments.Params())
	}
	if selected("table4") {
		fmt.Fprintln(stdout, experiments.Table4(*seed, 5))
	}
	if selected("table5") {
		fmt.Fprintln(stdout, experiments.Table5())
	}
	if selected("table6") {
		res, err := experiments.Table6(*scale, *seed, 256)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, res.Table)
	}
	if selected("fig3") {
		fmt.Fprintln(stdout, experiments.Fig3())
	}
	if selected("fig6") {
		fmt.Fprintln(stdout, experiments.Fig6(*seed, *trials))
	}
	if selected("fig7") {
		fmt.Fprintln(stdout, experiments.Fig7(*seed, *trials).Table)
	}
	if selected("fig8") {
		fmt.Fprintln(stdout, experiments.Fig8(*seed).Table)
	}
	if selected("fig9") {
		res := experiments.Fig9(*seed)
		fmt.Fprintln(stdout, res.Table)
		fmt.Fprintln(stdout, res.Timeline)
	}
	if selected("fig10") {
		_, tab := experiments.Fig10(*seed)
		fmt.Fprintln(stdout, tab)
	}
	if selected("fig11") {
		fmt.Fprintln(stdout, experiments.Fig11(*seed).Table)
	}
	if selected("fig12") || selected("table7") || selected("fig13") {
		res := experiments.Phase(*seed, horizonSec)
		fmt.Fprintln(stdout, res.Finished)
		fmt.Fprintln(stdout, res.Cost)
		fmt.Fprintln(stdout, res.Latency)
		fmt.Fprintln(stdout, res.Ops)
		fmt.Fprintln(stdout, res.Adapt)
	}
	if selected("ablation") {
		fmt.Fprintln(stdout, experiments.Ablations(*seed, horizonSec))
	}
	if selected("fig14") {
		res := experiments.Random(*seed, horizonSec)
		fmt.Fprintln(stdout, res.Finished)
		fmt.Fprintln(stdout, res.Cost)
		fmt.Fprintln(stdout, res.Latency)
	}
	if selected("fault") {
		rates, err := parseRates(*faults)
		if err != nil {
			fmt.Fprintln(stderr, "fault:", err)
			return 1
		}
		res := experiments.Fault(*seed, *faultSd, rates, horizonSec)
		fmt.Fprintln(stdout, res.Robustness)
		fmt.Fprintln(stdout, res.Recovery)
	}
	return 0
}

// experimentID is one -exp id; notInAll marks the ids too heavy for "all".
type experimentID struct {
	id       string
	notInAll bool
}

// experimentIDs is every -exp id but "all", in the order "all" runs them.
// The -exp help text and the unknown-id check are derived from it.
var experimentIDs = []experimentID{
	{id: "params"}, {id: "table4"}, {id: "table5"}, {id: "table6"},
	{id: "fig3"}, {id: "fig6"}, {id: "fig7"}, {id: "fig8"}, {id: "fig9"},
	{id: "fig10"}, {id: "fig11"}, {id: "fig12"}, {id: "table7"}, {id: "fig13"},
	{id: "fig14"}, {id: "fault"}, {id: "ablation", notInAll: true},
}

func known(id string) bool {
	return id == "all" || slices.ContainsFunc(experimentIDs, func(e experimentID) bool { return e.id == id })
}

// idList is the -exp help text: every id, the ones "all" skips marked.
func idList() string {
	var ids []string
	for _, e := range experimentIDs {
		if e.notInAll {
			ids = append(ids, e.id+" (not in all)")
		} else {
			ids = append(ids, e.id)
		}
	}
	return strings.Join(ids, ", ") + " or all"
}

// parseRates parses the -faults flag: a comma-separated list of
// per-container-per-quantum fault rates. Empty means the default sweep.
func parseRates(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad fault rate %q: %v", f, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("fault rate %g must be >= 0", v)
		}
		rates = append(rates, v)
	}
	return rates, nil
}
