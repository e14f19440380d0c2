// Command idxflow-sim runs the QaaS service on a generated dataflow
// workload and reports throughput, cost and index-management activity.
//
// Usage:
//
//	idxflow-sim [-strategy gain] [-generator phase] [-horizon 720]
//	            [-algo lp] [-seed 1] [-error 0.1] [-v] [-trace out.json]
//	            [-faults 0.01] [-fault-seed 42] [-events out.jsonl] [-explain]
//	idxflow-sim -flow path/to/flow.txt [-flow more.txt]  # submit flowlang files
//
// With -trace, the scheduler/executor span timeline of the run is written
// as Chrome trace-event JSON, loadable in chrome://tracing or
// https://ui.perfetto.dev. A span carries its id, its parent's and its
// pass's flow_id, whose decisions -events and -explain hold.
//
// With -events, every tuner decision (admissions, skyline choices, index
// adoptions/evictions with their Eq. 2–5 gain inputs, build placements,
// faults, settlements) is written as a JSONL event log. -explain prints the
// same decisions as a per-dataflow narrative instead.
//
// Exit status: 0 on success, 1 when the workload cannot be read, an output
// file cannot be written or the event log outgrew its ring
// (provenance.DefaultCapacity events), 2 for a bad flag value; the profile files are
// complete on every one. main_test.go drives run in-process against
// testdata/explain_h120.golden (`make golden-update` re-records it).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"idxflow/internal/core"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/flowlang"
	"idxflow/internal/profiling"
	"idxflow/internal/provenance"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// flowFiles collects repeated -flow flags.
type flowFiles []string

func (f *flowFiles) String() string { return fmt.Sprint(*f) }
func (f *flowFiles) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command and returns its exit code. Nothing below calls
// os.Exit, so the deferred profile writer runs on every path. The service
// reports into a registry of its own, so the output is a function of args.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("idxflow-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		strategy  = fs.String("strategy", "gain", "no-index | random | gain-no-delete | gain")
		generator = fs.String("generator", "phase", "phase | random")
		algo      = fs.String("algo", "lp", "interleaving algorithm: lp | online")
		horizon   = fs.Float64("horizon", 720, "horizon in quanta")
		seed      = fs.Int64("seed", 1, "random seed")
		errPct    = fs.Float64("error", 0.1, "runtime estimation error fraction (0..1)")
		faults    = fs.Float64("faults", 0, "fault rate in events/container/quantum (crashes, revocations, storage errors, stragglers)")
		faultSeed = fs.Int64("fault-seed", 42, "seed for the generated fault plan")
		verbose   = fs.Bool("v", false, "print per-dataflow results")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON span timeline to this file")
		eventsOut = fs.String("events", "", "write the decision-provenance event log (JSONL) to this file")
		explain   = fs.Bool("explain", false, "print a per-dataflow narrative of every tuner decision")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf   = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	var files flowFiles
	fs.Var(&files, "flow", "flowlang file to submit (repeatable; overrides -generator)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	defer profiling.Start(*cpuProf, *memProf)()
	fail := func(code int, a ...any) int {
		fmt.Fprintln(stderr, a...)
		return code
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.RuntimeError = *errPct
	cfg.Telemetry = telemetry.NewRegistry()
	var err error
	if cfg.Strategy, err = core.ParseStrategy(*strategy); err != nil {
		return fail(2, err)
	}
	switch *algo {
	case "lp":
		cfg.Algo = core.LPInterleave
	case "online":
		cfg.Algo = core.OnlineInterleave
	default:
		return fail(2, fmt.Sprintf("unknown algo %q", *algo))
	}

	db, err := workload.NewFileDB(*seed)
	if err != nil {
		return fail(1, err)
	}
	gen := workload.NewGenerator(db, *seed+1)
	horizonSec := *horizon * 60
	var flows []*dataflow.Flow
	if len(files) > 0 {
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				return fail(1, err)
			}
			flow, perr := flowlang.Parse(f)
			f.Close()
			if perr != nil {
				return fail(1, fmt.Sprintf("%s: %v", path, perr))
			}
			flows = append(flows, flow)
		}
		*generator = "files"
	} else {
		switch *generator {
		case "phase":
			flows = gen.PhaseWorkload(horizonSec)
		case "random":
			flows = gen.RandomWorkload(horizonSec)
		default:
			return fail(2, fmt.Sprintf("unknown generator %q", *generator))
		}
	}

	if *faults > 0 {
		q := cfg.Sched.Pricing.QuantumSeconds
		cfg.Faults = fault.Generate(*faults, q, horizonSec, *faultSeed)
	}
	if *traceOut != "" {
		cfg.Tracer = telemetry.NewTracer()
	}
	if *eventsOut != "" || *explain {
		cfg.Provenance = provenance.NewRecorder(0)
	}
	svc := core.NewService(cfg, db)
	m := svc.Run(flows, horizonSec)
	if err := complete(cfg.Provenance); err != nil {
		return fail(1, err)
	}

	if *explain {
		if err := provenance.Explain(stdout, cfg.Provenance.Snapshot()); err != nil {
			return fail(1, err)
		}
		fmt.Fprintln(stdout)
	}
	// An unwritable -events path does not cost the run its trace: both
	// writers are tried before the first failure is returned.
	code := 0
	if *eventsOut != "" {
		if err := profiling.WriteFile(*eventsOut, cfg.Provenance.WriteJSONL); err != nil {
			code = fail(1, err)
		} else {
			fmt.Fprintf(stdout, "events:            %d recorded (%d retained) -> %s\n",
				cfg.Provenance.Total(), cfg.Provenance.Len(), *eventsOut)
		}
	}
	if *traceOut != "" {
		if err := profiling.WriteFile(*traceOut, cfg.Tracer.WriteChromeTrace); err != nil {
			code = fail(1, err)
		} else {
			fmt.Fprintf(stdout, "trace:             %d spans -> %s (open in chrome://tracing)\n",
				len(cfg.Tracer.Events()), *traceOut)
		}
	}
	if code != 0 {
		return code
	}

	if *verbose {
		for _, r := range m.Results {
			fmt.Fprintf(stdout, "%-16s start=%8.0fs makespan=%7.1fs money=%5.1fq idx-used=%d builds=%d killed=%d deleted=%d\n",
				r.Name, r.Start, r.Makespan, r.MoneyQuanta,
				len(r.IndexesUsed), r.BuildsCompleted, r.BuildsKilled, len(r.Deleted))
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "strategy:          %s (interleaving: %s)\n", cfg.Strategy, *algo)
	fmt.Fprintf(stdout, "generator:         %s, horizon %g quanta, seed %d\n", *generator, *horizon, *seed)
	fmt.Fprintf(stdout, "dataflows:         %d finished / %d submitted / %d generated\n",
		m.FlowsFinished, m.FlowsSubmitted, len(flows))
	fmt.Fprintf(stdout, "mean makespan:     %.1f s\n", m.MeanMakespan)
	if q := quantileLine(svc.Telemetry(), "idxflow_flow_makespan_seconds", "s"); q != "" {
		fmt.Fprintf(stdout, "makespan quantile: %s\n", q)
	}
	if q := quantileLine(svc.Telemetry(), "idxflow_flow_quanta", "q"); q != "" {
		fmt.Fprintf(stdout, "quanta quantile:   %s\n", q)
	}
	fmt.Fprintf(stdout, "VM cost:           $%.2f (%.0f quanta)\n", m.VMCost, m.VMQuanta)
	fmt.Fprintf(stdout, "storage cost:      $%.4f\n", m.StorageCost)
	fmt.Fprintf(stdout, "cost per dataflow: $%.3f\n", m.CostPerFlow)
	fmt.Fprintf(stdout, "operators:         %d total, %d killed (%.1f%%)\n",
		m.TotalOps, m.KilledOps, pct(m.KilledOps, m.TotalOps))
	if *faults > 0 {
		fmt.Fprintf(stdout, "faults:            %d injected, %d recovered, %d ops re-placed, %.1f quanta wasted\n",
			m.FaultsInjected, m.FaultsRecovered, m.ReplacedOps, m.WastedQuanta)
	}
	storageMB, _ := svc.Catalog().Footprint()
	fmt.Fprintf(stdout, "indexes available: %d (storage %.1f MB)\n",
		svc.Catalog().AvailableCount(), storageMB)
	return 0
}

// complete fails when rec's ring has wrapped, so -events and -explain never
// emit a log missing its oldest events.
func complete(rec *provenance.Recorder) error {
	if d := rec.Dropped(); d > 0 {
		return fmt.Errorf("provenance: the %d-event ring dropped %d of %d events", rec.Cap(), d, rec.Total())
	}
	return nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

// quantileLine renders "p50=… p95=… p99=…" for the named histogram, or ""
// when it recorded nothing. Values are bucket-interpolated estimates.
func quantileLine(reg *telemetry.Registry, name, unit string) string {
	h := reg.Histogram(name, "", nil)
	if h.Count() == 0 {
		return ""
	}
	return fmt.Sprintf("p50=%.1f%s p95=%.1f%s p99=%.1f%s",
		h.Quantile(0.50), unit, h.Quantile(0.95), unit, h.Quantile(0.99), unit)
}
