package core

import (
	"context"
	"reflect"
	"testing"

	"idxflow/internal/dataflow"
	"idxflow/internal/sched"
	"idxflow/internal/workload"
)

// runWarmSeq runs a fixed submission sequence — every flow submitted twice
// so the scheduling problem repeats — and returns the aggregate metrics.
// warmOn keeps the service's one skyline; off, every submit schedules on a
// fresh one, so every schedule is computed from scratch: the cold side of
// the equivalence. Everything else is identical, so warm and cold runs must
// agree bit for bit.
func runWarmSeq(t *testing.T, strategy Strategy, warmOn, faulty bool) (*Service, Metrics) {
	t.Helper()
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(strategy)
	if faulty {
		cfg.Faults = heavyFaultPlan()
	}
	svc := NewService(cfg, db)
	submit := func(flow *dataflow.Flow) {
		if !warmOn {
			svc.skyline = sched.NewSkyline(svc.skyline.Opts)
		}
		svc.SubmitCtx(context.Background(), flow)
		if st := svc.WarmStats(); !warmOn && st.Hits != 0 {
			t.Fatalf("the cold side hit a warm memo: %+v", st)
		}
	}
	for i := 0; i < 4; i++ {
		// Submit the same flow object twice: the generator draws from its
		// RNG per call, so only reuse yields an identical scheduling
		// problem (Submit clones the graph before any rewrite).
		flow := gen.Flow(workload.Apps[i%len(workload.Apps)], i, svc.Clock())
		submit(flow)
		submit(flow)
	}
	return svc, svc.Run(nil, svc.Clock()+1)
}

// TestServiceWarmMatchesColdGolden is the end-to-end golden equivalence:
// with and without faults, a warm-carrying service produces metrics
// reflect.DeepEqual to a cold service over the same submissions — per-flow
// results, costs and fault accounting included.
func TestServiceWarmMatchesColdGolden(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		_, cold := runWarmSeq(t, Gain, false, faulty)
		if faulty && cold.FaultsInjected == 0 {
			t.Fatal("fault plan injected nothing; the faulted golden case is dead")
		}
		_, warm := runWarmSeq(t, Gain, true, faulty)
		if !reflect.DeepEqual(cold, warm) {
			t.Errorf("faulty=%v: warm metrics diverged from cold:\ncold: %+v\nwarm: %+v",
				faulty, cold, warm)
		}
	}
}

// TestServiceWarmHitsOnRepeatedFlows proves the memo engages on the
// service's hot path: under NoIndex no tuner rewrite perturbs the graph
// between identical submissions, so the repeats must hit, and the repeated
// flow's result must match its first run exactly.
func TestServiceWarmHitsOnRepeatedFlows(t *testing.T) {
	svc, m := runWarmSeq(t, NoIndex, true, false)
	st := svc.WarmStats()
	if st.Hits == 0 {
		t.Fatalf("no warm hits over repeated identical flows: %+v", st)
	}
	for i := 0; i+1 < len(m.Results); i += 2 {
		a, b := m.Results[i], m.Results[i+1]
		if a.Makespan != b.Makespan || a.MoneyQuanta != b.MoneyQuanta {
			t.Errorf("repeat of flow %d diverged: (%g, %g) vs (%g, %g)",
				i, a.Makespan, a.MoneyQuanta, b.Makespan, b.MoneyQuanta)
		}
	}
}
