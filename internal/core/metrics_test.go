package core

import (
	"testing"

	"idxflow/internal/workload"
)

// TestMetricsInvariants checks accounting consistency across strategies:
// finished <= submitted, VM cost ties to quanta, per-flow money sums to the
// total, and the Fig. 13 timeline is monotone in time and storage cost.
func TestMetricsInvariants(t *testing.T) {
	for _, strat := range []Strategy{NoIndex, RandomIndex, GainNoDelete, Gain} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			db := testDB(t)
			gen := workload.NewGenerator(db, 2)
			svc := NewService(quickConfig(strat), db)
			m := svc.Run(gen.RandomWorkload(400, 60), 2400)
			if m.FlowsFinished > m.FlowsSubmitted {
				t.Errorf("finished %d > submitted %d", m.FlowsFinished, m.FlowsSubmitted)
			}
			price := quickConfig(strat).Sched.Pricing.VMPerQuantum
			if diff := m.VMCost - m.VMQuanta*price; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("VMCost %g != VMQuanta %g * price %g", m.VMCost, m.VMQuanta, price)
			}
			var sumQ float64
			for _, r := range m.Results {
				sumQ += r.MoneyQuanta
				if r.End < r.Start {
					t.Errorf("flow %s ends before it starts", r.Name)
				}
				if r.Makespan < 0 {
					t.Errorf("flow %s negative makespan", r.Name)
				}
			}
			if diff := sumQ - m.VMQuanta; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("sum of per-flow quanta %g != total %g", sumQ, m.VMQuanta)
			}
			var prevT, prevCost float64
			for _, tp := range m.Timeline {
				if tp.T < prevT {
					t.Error("timeline not monotone in time")
				}
				if tp.StorageCost < prevCost-1e-9 {
					t.Error("cumulative storage cost decreased")
				}
				prevT, prevCost = tp.T, tp.StorageCost
				if tp.StorageMB < 0 || tp.IndexesBuilt < 0 {
					t.Errorf("negative timeline point: %+v", tp)
				}
			}
			if m.FlowsFinished > 0 {
				want := (m.VMCost + m.StorageCost) / float64(m.FlowsFinished)
				if diff := m.CostPerFlow - want; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("CostPerFlow %g != %g", m.CostPerFlow, want)
				}
			}
		})
	}
}
