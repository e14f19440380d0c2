package experiments

import (
	"fmt"

	"idxflow/internal/core"
	"idxflow/internal/dataflow"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// Horizon720 is the paper's experiment horizon: 720 quanta in seconds.
const Horizon720 = 720 * 60

// strategies in the order the paper's bar charts present them.
var strategies = []core.Strategy{core.NoIndex, core.RandomIndex, core.GainNoDelete, core.Gain}

// DynamicResult is one full §6.5 run (one workload, all four strategies).
type DynamicResult struct {
	Finished *Table // Fig 12 / Fig 14 left: dataflows finished
	Cost     *Table // Fig 12 / Fig 14 right: cost per dataflow
	Ops      *Table // Table 7: operators executed and killed
	Adapt    *Table // Fig 13: indexes and storage cost over time (Gain run)
	// Latency summarizes the per-strategy makespan distribution:
	// bucket-interpolated p50/p95/p99 from the run's telemetry histogram.
	Latency *Table
	// Metrics per strategy, for assertions.
	Metrics map[core.Strategy]core.Metrics
}

// runDynamic executes the four strategies on identical workloads.
func runDynamic(title string, seed int64, flowsFor func(gen *workload.Generator) []*dataflow.Flow, horizon float64) *DynamicResult {
	res := &DynamicResult{
		Finished: &Table{
			Title:  fmt.Sprintf("Num dataflows finished (%s)", title),
			Header: []string{"Strategy", "Finished", "Submitted"},
		},
		Cost: &Table{
			Title:  fmt.Sprintf("Cost / dataflow (%s)", title),
			Header: []string{"Strategy", "Cost per dataflow ($)", "VM cost ($)", "Storage cost ($)", "Mean makespan (s)"},
		},
		Ops: &Table{
			Title:  fmt.Sprintf("Table 7: Operators executed (%s)", title),
			Header: []string{"Algorithm", "Total Ops", "Killed Ops", "Percentage"},
		},
		Adapt: &Table{
			Title:  fmt.Sprintf("Fig 13: Adaptation over time, Gain strategy (%s)", title),
			Header: []string{"t (quanta)", "Indexes built", "Storage MB", "Storage cost ($)"},
		},
		Latency: &Table{
			Title:  fmt.Sprintf("Makespan quantiles (%s)", title),
			Header: []string{"Strategy", "p50 (s)", "p95 (s)", "p99 (s)"},
		},
		Metrics: make(map[core.Strategy]core.Metrics),
	}

	// The four strategy runs are independent simulations — each gets a
	// fresh database, an identical flow sequence and an isolated metrics
	// registry — so they fan out on the experiment pool; rows are appended
	// in strategy order afterwards so tables never depend on completion
	// order.
	perStrat := make([]core.Metrics, len(strategies))
	quantiles := make([][3]float64, len(strategies))
	runJobs(len(strategies), func(i int) {
		db, err := workload.NewFileDB(seed)
		if err != nil {
			panic(err)
		}
		gen := workload.NewGenerator(db, seed+1)
		flows := flowsFor(gen)

		cfg := core.DefaultConfig()
		cfg.Strategy = strategies[i]
		cfg.Sched.MaxSkyline = 4
		cfg.RuntimeError = 0.2 // §6.1: estimates are never exact in practice
		cfg.Telemetry = telemetry.NewRegistry()
		svc := core.NewService(cfg, db)
		perStrat[i] = svc.Run(flows, horizon)
		// The registry is discarded with the service; capture the makespan
		// quantiles while it is still in reach.
		h := cfg.Telemetry.Histogram("idxflow_flow_makespan_seconds", "", nil)
		quantiles[i] = [3]float64{h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)}
	})

	for i, strat := range strategies {
		m := perStrat[i]
		res.Metrics[strat] = m

		res.Finished.AddRow(strat.String(), m.FlowsFinished, m.FlowsSubmitted)
		res.Latency.AddRow(strat.String(), quantiles[i][0], quantiles[i][1], quantiles[i][2])
		res.Cost.AddRow(strat.String(), m.CostPerFlow, m.VMCost, m.StorageCost, m.MeanMakespan)
		pct := 0.0
		if m.TotalOps > 0 {
			pct = float64(m.KilledOps) / float64(m.TotalOps) * 100
		}
		res.Ops.AddRow(strat.String(), m.TotalOps, m.KilledOps, fmt.Sprintf("%.1f", pct))

		if strat == core.Gain {
			// Sample the timeline at ~40 evenly spaced points.
			step := len(m.Timeline)/40 + 1
			for i := 0; i < len(m.Timeline); i += step {
				tp := m.Timeline[i]
				res.Adapt.AddRow(tp.T/60, tp.IndexesBuilt, tp.StorageMB, tp.StorageCost)
			}
		}
	}
	res.Finished.Notes = append(res.Finished.Notes,
		"expected shape: Gain finishes substantially more dataflows than No Index; Random does not improve throughput")
	res.Cost.Notes = append(res.Cost.Notes,
		"expected shape: Gain's cost/dataflow well below No Index; Random and no-delete pay extra storage")
	res.Adapt.Notes = append(res.Adapt.Notes,
		"expected shape: index count tracks the workload phases; deleted indexes are re-created when a phase repeats")
	return res
}

// Phase runs the §6.5.1 experiment: the phase dataflow generator
// (CyberShake, LIGO, Montage, CyberShake) over the given horizon in
// seconds (use Horizon720 for the paper's setting).
func Phase(seed int64, horizon float64) *DynamicResult {
	return runDynamic("phase", seed, func(gen *workload.Generator) []*dataflow.Flow {
		return gen.PhaseWorkload(workload.DefaultPhasesFor(horizon), 60)
	}, horizon)
}

// Random runs the §6.5.2 experiment: the uniform random dataflow generator
// over the given horizon in seconds.
func Random(seed int64, horizon float64) *DynamicResult {
	return runDynamic("random", seed, func(gen *workload.Generator) []*dataflow.Flow {
		return gen.RandomWorkload(horizon, 60)
	}, horizon)
}
