package interleave_test

// External-package wiring of the invariant auditor (internal/check,
// DESIGN.md §8): LP, online (the skyline's ScheduleWithOptional) and random
// interleaving must keep the §5.3 guarantee — optional index builds never
// delay or reprice the dataflow — and their outputs must pass the schedule
// audit on randomized workloads.

import (
	"math"
	"math/rand"
	"testing"

	"idxflow/internal/check"
	"idxflow/internal/dataflow"
	"idxflow/internal/interleave"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
)

func buildGains(g *dataflow.Graph) map[dataflow.OpID]float64 {
	gains := map[dataflow.OpID]float64{}
	for _, id := range g.Ops() {
		if op := g.Op(id); op.Optional {
			gains[id] = op.Time * 1.5
		}
	}
	return gains
}

func TestAuditLPInterleaving(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		sc := check.NewScenario(seed, 0)
		baseline := sched.NewSkyline(sc.Opts).Schedule(sc.Graph)
		packed := sched.NewSkyline(sc.Opts).Schedule(sc.Graph)
		interleave.LP(packed, sc.Graph, buildGains(sc.Graph))
		if len(packed) != len(baseline) {
			t.Fatalf("seed %d: LP interleaving changed frontier size %d -> %d",
				seed, len(baseline), len(packed))
		}
		for i, s := range packed {
			// §5.3: packing must not have degraded either objective.
			if s.Makespan() > baseline[i].Makespan()+1e-9*math.Max(1, baseline[i].Makespan()) {
				t.Errorf("seed %d schedule %d: interleaving extended makespan %g -> %g",
					seed, i, baseline[i].Makespan(), s.Makespan())
			}
			if s.MoneyQuanta() > baseline[i].MoneyQuanta()+1e-9*math.Max(1, baseline[i].MoneyQuanta()) {
				t.Errorf("seed %d schedule %d: interleaving raised cost %g -> %g",
					seed, i, baseline[i].MoneyQuanta(), s.MoneyQuanta())
			}
			if err := check.AuditSchedule(s); err != nil {
				t.Errorf("seed %d schedule %d: %v", seed, i, err)
			}
			res := sim.Execute(s, sim.Config{Pricing: sc.Opts.Pricing, Spec: sc.Opts.Spec})
			if err := check.Audit(res, s, check.AuditConfig{Exact: true}); err != nil {
				t.Errorf("seed %d schedule %d replay: %v", seed, i, err)
			}
		}
	}
}

func TestAuditOnlineInterleaving(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		sc := check.NewScenario(seed, 0)
		for i, s := range sched.NewSkyline(sc.Opts).ScheduleWithOptional(sc.Graph) {
			if err := check.AuditSchedule(s); err != nil {
				t.Errorf("seed %d schedule %d: %v", seed, i, err)
			}
		}
	}
}

func TestAuditRandomInterleaving(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		sc := check.NewScenario(seed, 0)
		rnd := sched.NewSkyline(sc.Opts).Schedule(sc.Graph)
		interleave.Random(rnd, sc.Graph, rand.New(rand.NewSource(seed)))
		for i, s := range rnd {
			if err := check.AuditSchedule(s); err != nil {
				t.Errorf("seed %d schedule %d: %v", seed, i, err)
			}
		}
	}
}
