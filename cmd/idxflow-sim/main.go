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
// https://ui.perfetto.dev.
//
// With -events, every tuner decision (admissions, skyline choices, index
// adoptions/evictions with their Eq. 2–5 gain inputs, build placements,
// faults, settlements) is written as a JSONL event log. -explain prints the
// same decisions as a per-dataflow narrative instead.
package main

import (
	"flag"
	"fmt"
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

func main() {
	var (
		strategy  = flag.String("strategy", "gain", "no-index | random | gain-no-delete | gain")
		generator = flag.String("generator", "phase", "phase | random")
		algo      = flag.String("algo", "lp", "interleaving algorithm: lp | online")
		horizon   = flag.Float64("horizon", 720, "horizon in quanta")
		seed      = flag.Int64("seed", 1, "random seed")
		errPct    = flag.Float64("error", 0.1, "runtime estimation error fraction (0..1)")
		faults    = flag.Float64("faults", 0, "fault rate in events/container/quantum (crashes, revocations, storage errors, stragglers)")
		faultSeed = flag.Int64("fault-seed", 42, "seed for the generated fault plan")
		verbose   = flag.Bool("v", false, "print per-dataflow results")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON span timeline to this file")
		eventsOut = flag.String("events", "", "write the decision-provenance event log (JSONL) to this file")
		explain   = flag.Bool("explain", false, "print a per-dataflow narrative of every tuner decision")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	var files flowFiles
	flag.Var(&files, "flow", "flowlang file to submit (repeatable; overrides -generator)")
	flag.Parse()
	defer profiling.Start(*cpuProf, *memProf)()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.RuntimeError = *errPct
	switch *strategy {
	case "no-index":
		cfg.Strategy = core.NoIndex
	case "random":
		cfg.Strategy = core.RandomIndex
	case "gain-no-delete":
		cfg.Strategy = core.GainNoDelete
	case "gain":
		cfg.Strategy = core.Gain
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	switch *algo {
	case "lp":
		cfg.Algo = core.LPInterleave
	case "online":
		cfg.Algo = core.OnlineInterleave
	default:
		fmt.Fprintf(os.Stderr, "unknown algo %q\n", *algo)
		os.Exit(2)
	}

	db, err := workload.NewFileDB(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	gen := workload.NewGenerator(db, *seed+1)
	horizonSec := *horizon * 60
	var flows []*dataflow.Flow
	if len(files) > 0 {
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			flow, perr := flowlang.Parse(f)
			f.Close()
			if perr != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", path, perr)
				os.Exit(1)
			}
			flows = append(flows, flow)
		}
		*generator = "files"
	} else {
		switch *generator {
		case "phase":
			phases := workload.DefaultPhases()
			if horizonSec < 43200 {
				f := horizonSec / 43200
				for i := range phases {
					phases[i].Seconds *= f
				}
			}
			flows = gen.PhaseWorkload(phases, 60)
		case "random":
			flows = gen.RandomWorkload(horizonSec, 60)
		default:
			fmt.Fprintf(os.Stderr, "unknown generator %q\n", *generator)
			os.Exit(2)
		}
	}

	if *faults > 0 {
		q := cfg.Sched.Pricing.QuantumSeconds
		cfg.Faults = fault.Generate(fault.DefaultRates(*faults, q, horizonSec), *faultSeed)
	}
	if *traceOut != "" {
		cfg.Tracer = telemetry.NewTracer()
	}
	if *eventsOut != "" || *explain {
		cfg.Provenance = provenance.NewRecorder(0)
	}
	svc := core.NewService(cfg, db)
	m := svc.Run(flows, horizonSec)

	if *explain {
		if err := provenance.Explain(os.Stdout, cfg.Provenance.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := cfg.Provenance.WriteJSONL(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("events:            %d recorded (%d retained) -> %s\n",
			cfg.Provenance.Total(), cfg.Provenance.Len(), *eventsOut)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := cfg.Tracer.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace:             %d spans -> %s (open in chrome://tracing)\n",
			cfg.Tracer.Len(), *traceOut)
	}

	if *verbose {
		for _, r := range m.Results {
			fmt.Printf("%-16s start=%8.0fs makespan=%7.1fs money=%5.1fq idx-used=%d builds=%d killed=%d deleted=%d\n",
				r.Name, r.Start, r.Makespan, r.MoneyQuanta,
				len(r.IndexesUsed), r.BuildsCompleted, r.BuildsKilled, len(r.Deleted))
		}
		fmt.Println()
	}
	fmt.Printf("strategy:          %s (interleaving: %s)\n", cfg.Strategy, *algo)
	fmt.Printf("generator:         %s, horizon %g quanta, seed %d\n", *generator, *horizon, *seed)
	fmt.Printf("dataflows:         %d finished / %d submitted / %d generated\n",
		m.FlowsFinished, m.FlowsSubmitted, len(flows))
	fmt.Printf("mean makespan:     %.1f s\n", m.MeanMakespan)
	if q := quantileLine(svc.Telemetry(), "idxflow_flow_makespan_seconds", "s"); q != "" {
		fmt.Printf("makespan quantile: %s\n", q)
	}
	if q := quantileLine(svc.Telemetry(), "idxflow_flow_quanta", "q"); q != "" {
		fmt.Printf("quanta quantile:   %s\n", q)
	}
	fmt.Printf("VM cost:           $%.2f (%.0f quanta)\n", m.VMCost, m.VMQuanta)
	fmt.Printf("storage cost:      $%.4f\n", m.StorageCost)
	fmt.Printf("cost per dataflow: $%.3f\n", m.CostPerFlow)
	fmt.Printf("operators:         %d total, %d killed (%.1f%%)\n",
		m.TotalOps, m.KilledOps, pct(m.KilledOps, m.TotalOps))
	if *faults > 0 {
		fmt.Printf("faults:            %d injected, %d recovered, %d ops re-placed, %.1f quanta wasted\n",
			m.FaultsInjected, m.FaultsRecovered, m.ReplacedOps, m.WastedQuanta)
	}
	fmt.Printf("indexes available: %d (storage %.1f MB)\n",
		len(svc.Catalog().AvailableSet()), svc.Catalog().BuiltSizeMB())
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
