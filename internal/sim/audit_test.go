package sim_test

// External-package wiring of the cross-layer invariant auditor
// (internal/check, DESIGN.md §8): every executor code path exercised here —
// exact replay, inexact estimates, heterogeneous pools, fault plans — must
// satisfy the full invariant catalog, so executor optimizations are checked
// against the paper's accounting identities on every test run.

import (
	"testing"

	"idxflow/internal/check"
	"idxflow/internal/dataflow"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
)

func TestAuditExactReplay(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		sc := check.NewScenario(seed, 0)
		for i, s := range sched.NewSkyline(sc.Opts).Schedule(sc.Graph) {
			res := sim.Execute(s, sim.Config{Pricing: sc.Opts.Pricing, Spec: sc.Opts.Spec})
			if err := check.Audit(res, s, check.AuditConfig{Exact: true}); err != nil {
				t.Errorf("seed %d schedule %d: %v", seed, i, err)
			}
		}
	}
}

func TestAuditInexactEstimates(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		sc := check.NewScenario(seed, 0)
		for i, s := range sched.NewSkyline(sc.Opts).Schedule(sc.Graph) {
			cfg := sim.Config{Pricing: sc.Opts.Pricing, Spec: sc.Opts.Spec}
			// Deterministic over- and under-estimates: realized times drift
			// from the plan, but every invariant except exactness holds.
			cfg.Actual = func(op *dataflow.Operator) float64 {
				if op.Optional {
					return op.Time
				}
				if int64(op.Priority)+seed%2 == 0 {
					return op.Time * 0.6
				}
				return op.Time * 1.7
			}
			res := sim.Execute(s, cfg)
			if err := check.Audit(res, s, check.AuditConfig{}); err != nil {
				t.Errorf("seed %d schedule %d: %v", seed, i, err)
			}
		}
	}
}

func TestAuditFaultyReplay(t *testing.T) {
	audited := 0
	for seed := int64(1); seed <= 20; seed++ {
		sc := check.NewScenario(seed, 0.1)
		if len(sc.Plan.Events) == 0 {
			continue
		}
		for i, s := range sched.NewSkyline(sc.Opts).Schedule(sc.Graph) {
			res := sim.New(sim.Config{Pricing: sc.Opts.Pricing, Spec: sc.Opts.Spec}).Execute(nil, s, sc.Plan.Events)
			if err := check.Audit(res, s, check.AuditConfig{Faults: sc.Plan.Events}); err != nil {
				t.Errorf("seed %d schedule %d: %v", seed, i, err)
			}
			audited++
		}
	}
	if audited == 0 {
		t.Fatal("no fault plans generated")
	}
}
