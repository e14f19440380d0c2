package experiments

import (
	"fmt"

	"idxflow/internal/core"
	"idxflow/internal/fault"
)

// DefaultFaultRates is the robustness sweep: combined fault events per
// container per quantum, from fault-free to roughly one event per
// container every 40 quanta — far beyond observed spot-market churn.
var DefaultFaultRates = []float64{0, 0.002, 0.005, 0.01, 0.025}

// FaultResult is the fault-robustness experiment: the phase workload run
// under increasing infrastructure fault rates, Gain vs No-Index.
type FaultResult struct {
	// Robustness is the headline curve: throughput and cost per dataflow
	// against the fault rate for both strategies.
	Robustness *Table
	// Recovery breaks down the fault subsystem's work at each rate.
	Recovery *Table
	// Metrics holds the full run metrics per (rate index, strategy).
	Metrics []map[core.Strategy]core.Metrics
}

// Fault runs the robustness experiment: for each fault rate, the same
// seeded fault plan (crashes, spot revocations, transient storage errors
// and stragglers mixed per fault.Generate) is applied to a No-Index
// and a Gain run over identical phase workloads. The expected shape is
// graceful degradation — throughput falls and cost per dataflow rises
// with the fault rate — with Gain staying ahead of No-Index at every
// rate: interleaved index builds are free to lose (their partitions heal
// in later idle slots), so faults do not erase the tuner's advantage.
func Fault(seed, faultSeed int64, rates []float64, horizon float64) *FaultResult {
	if len(rates) == 0 {
		rates = DefaultFaultRates
	}
	res := &FaultResult{
		Robustness: &Table{
			Title: "Fault robustness: throughput and cost vs fault rate (phase)",
			Header: []string{"Faults/cont/quantum", "Strategy", "Finished",
				"Cost per dataflow ($)", "Mean makespan (s)"},
		},
		Recovery: &Table{
			Title: "Fault recovery accounting (phase)",
			Header: []string{"Faults/cont/quantum", "Strategy", "Injected",
				"Recovered", "Ops re-placed", "Builds killed", "Wasted quanta"},
		},
	}
	// The rate × strategy grid cells are independent simulations: fan them
	// out on the experiment pool, then assemble rows in grid order.
	strats := []core.Strategy{core.NoIndex, core.Gain}
	grid := make([]core.Metrics, len(rates)*len(strats))
	runJobs(len(grid), func(i int) {
		rate, strat := rates[i/len(strats)], strats[i%len(strats)]
		grid[i] = runService(seed, horizon, 0.2, phaseFlows(horizon), func(cfg *core.Config) {
			cfg.Strategy = strat
			if rate > 0 {
				// The identical plan hits both strategies: the comparison
				// isolates what indexing does under churn, not fault luck.
				q := cfg.Sched.Pricing.QuantumSeconds
				cfg.Faults = fault.Generate(rate, q, horizon, faultSeed)
			}
		})
	})
	for ri, rate := range rates {
		byStrat := make(map[core.Strategy]core.Metrics)
		for si, strat := range strats {
			m := grid[ri*len(strats)+si]
			byStrat[strat] = m

			res.Robustness.AddRow(fmt.Sprintf("%g", rate), strat.String(),
				m.FlowsFinished, m.CostPerFlow, m.MeanMakespan)
			res.Recovery.AddRow(fmt.Sprintf("%g", rate), strat.String(),
				m.FaultsInjected, m.FaultsRecovered, m.ReplacedOps,
				m.KilledOps, m.WastedQuanta)
		}
		res.Metrics = append(res.Metrics, byStrat)
	}
	res.Robustness.Notes = append(res.Robustness.Notes,
		"expected shape: throughput degrades gracefully with the fault rate; Gain stays ahead of No Index at every rate",
		"interleaved builds lost to faults are rebuilt in later idle slots (self-healing), so indexing keeps paying off under churn")
	res.Recovery.Notes = append(res.Recovery.Notes,
		"every injected fault is either recovered (re-placed op, retried transfer, ridden-out straggler) or accounted as wasted quanta")
	return res
}
