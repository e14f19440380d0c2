package core

import (
	"context"
	"reflect"
	"testing"

	"idxflow/internal/fault"
	"idxflow/internal/workload"
)

// heavyFaultPlan covers the first ~20k service seconds with enough churn
// that several executions are hit.
func heavyFaultPlan() *fault.Plan {
	return fault.Generate(fault.DefaultRates(0.05, 60, 20000), 11)
}

func runFaulty(t *testing.T, n int) (*Service, *workload.FileDB, Metrics) {
	t.Helper()
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(Gain)
	cfg.Faults = heavyFaultPlan()
	svc := NewService(cfg, db)
	for i := 0; i < n; i++ {
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
	}
	// Run with no new flows just aggregates the accumulated metrics.
	m := svc.Run(nil, svc.Clock()+1)
	return svc, db, m
}

func TestFaultInjectionHealsIndexBuilds(t *testing.T) {
	svc, db, m := runFaulty(t, 8)
	if m.FaultsInjected == 0 {
		t.Fatal("the heavy fault plan injected nothing; the wiring is dead")
	}
	if m.FaultsRecovered == 0 && m.WastedQuanta == 0 {
		t.Error("faults injected but neither recovered nor accounted as wasted quanta")
	}
	// Self-healing: the tuner still gets its indexes built despite builds
	// dying with their containers.
	built := 0
	for _, r := range m.Results {
		built += r.BuildsCompleted
	}
	if built == 0 {
		t.Error("no index partition was ever built under faults")
	}
	if db.Catalog.AvailableCount() == 0 {
		t.Error("no index available after a faulty run")
	}
	// No phantom partitions: every partition the catalog says is built
	// must exist in the storage service — a build killed by a crash must
	// not have been committed.
	stored := make(map[string]bool)
	for _, path := range svc.storage.Paths() {
		stored[path] = true
	}
	for _, name := range db.Catalog.IndexNames() {
		st := db.Catalog.State(name)
		for _, p := range st.Index.Table.Partitions {
			if st.Part(p.ID).Built && !stored[st.Index.PartitionPath(p.ID)] {
				t.Errorf("index %s partition %d is marked built but has no storage object", name, p.ID)
			}
		}
	}
}

func TestFaultyRunDeterministic(t *testing.T) {
	_, _, m1 := runFaulty(t, 5)
	_, _, m2 := runFaulty(t, 5)
	if !reflect.DeepEqual(m1, m2) {
		t.Error("identical faulty runs produced different metrics")
	}
}
