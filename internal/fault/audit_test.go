package fault_test

// External-package wiring of the invariant auditor (internal/check,
// DESIGN.md §8): generated fault plans are structurally valid across the
// rate grid, and each fault kind in isolation drives the executor through
// its recovery path while preserving the conservation identity
// injected ⇒ recovered ∨ wasted and the §3 lease accounting.

import (
	"testing"

	"idxflow/internal/check"
	"idxflow/internal/fault"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
)

func TestAuditGeneratedPlansValid(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, rate := range []float64{0.01, 0.1, 0.5, 2} {
			p := check.FaultPlan(rate, 60, 7200, seed)
			if err := p.Validate(); err != nil {
				t.Errorf("seed %d rate %g: %v", seed, rate, err)
			}
		}
	}
}

// TestAuditPerKindReplay isolates each fault kind: a plan containing only
// crashes, only revocations, only storage errors or only stragglers is
// replayed against a generated scenario and the realized execution must
// pass the audit, so every recovery path is exercised alone rather than
// only in the mixed plans the sim suite uses.
func TestAuditPerKindReplay(t *testing.T) {
	audited := map[fault.Kind]int{}
	for seed := int64(1); seed <= 30; seed++ {
		sc := check.NewScenario(seed, 0.2)
		if len(sc.Plan.Events) == 0 {
			continue
		}
		byKind := map[fault.Kind][]fault.Event{}
		for _, e := range sc.Plan.Events {
			byKind[e.Kind] = append(byKind[e.Kind], e)
		}
		skyline := sched.NewSkyline(sc.Opts).Schedule(sc.Graph)
		s := skyline[0]
		for kind := fault.ContainerCrash; kind <= fault.Straggler; kind++ {
			events := byKind[kind]
			if len(events) == 0 {
				continue
			}
			// Re-sequence so AnyContainer resolution matches a standalone
			// plan of just this kind.
			only := make([]fault.Event, len(events))
			for i, e := range events {
				e.Seq = i
				only[i] = e
			}
			res := sim.New(sim.Config{Pricing: sc.Opts.Pricing, Spec: sc.Opts.Spec}).Execute(nil, s, only)
			if err := check.Audit(res, s, check.AuditConfig{Faults: only}); err != nil {
				t.Errorf("seed %d kind %v: %v", seed, kind, err)
			}
			audited[kind]++
		}
	}
	for kind := fault.ContainerCrash; kind <= fault.Straggler; kind++ {
		if audited[kind] == 0 {
			t.Errorf("no generated plan contained kind %v; raise the rate", kind)
		}
	}
}

// TestAuditPlanShiftInvariance: Plan.From re-bases absolute times to
// execution-relative seconds; replaying the shifted suffix must still
// satisfy the catalog (shifting is how the online tuner consumes plans).
func TestAuditPlanShiftInvariance(t *testing.T) {
	audited := 0
	for seed := int64(1); seed <= 20; seed++ {
		sc := check.NewScenario(seed, 0.15)
		if len(sc.Plan.Events) < 2 {
			continue
		}
		mid := sc.Plan.Events[len(sc.Plan.Events)/2].At
		suffix := sc.Plan.From(mid)
		if len(suffix) == 0 {
			continue
		}
		s := sched.NewSkyline(sc.Opts).Schedule(sc.Graph)[0]
		res := sim.New(sim.Config{Pricing: sc.Opts.Pricing, Spec: sc.Opts.Spec}).Execute(nil, s, suffix)
		if err := check.Audit(res, s, check.AuditConfig{Faults: suffix}); err != nil {
			t.Errorf("seed %d: shifted plan: %v", seed, err)
		}
		audited++
	}
	if audited == 0 {
		t.Fatal("no plan produced a non-empty shifted suffix")
	}
}
