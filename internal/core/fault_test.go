package core

import (
	"context"
	"reflect"
	"testing"

	"idxflow/internal/fault"
	"idxflow/internal/provenance"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// heavyFaultPlan covers the first ~20k service seconds. Its seed revokes a
// container during the first Montage flow, whose index builds are preempted
// in flight and rebuilt by the next flow.
func heavyFaultPlan() *fault.Plan {
	return fault.Generate(0.05, 60, 20000, 32)
}

func runFaulty(t *testing.T, n int, rec *provenance.Recorder, reg *telemetry.Registry) (*workload.FileDB, Metrics) {
	t.Helper()
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(Gain)
	cfg.Faults = heavyFaultPlan()
	cfg.Provenance = rec
	cfg.Telemetry = reg
	svc := NewService(cfg, db)
	for i := 0; i < n; i++ {
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
	}
	// Run with no new flows just aggregates the accumulated metrics.
	return db, svc.Run(nil, svc.Clock()+1)
}

func TestFaultInjectionHealsIndexBuilds(t *testing.T) {
	rec := provenance.NewRecorder(1 << 16)
	db, m := runFaulty(t, 8, rec, nil)
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

	// No phantom partitions. Replaying the log (a commit adds its partition,
	// an eviction clears its index; the run has no batch updates) must give
	// the catalog's built set exactly, and no build op may be both killed
	// and committed in one flow: a killed build is never committed.
	if rec.Dropped() != 0 {
		t.Fatalf("the recorder dropped %d events; the replay needs them all", rec.Dropped())
	}
	type part struct {
		index string
		id    int
	}
	type flowOp struct {
		flow provenance.FlowID
		op   string
	}
	replay := map[part]bool{}
	killed := map[flowOp]bool{}
	var commits []provenance.Event
	for _, e := range rec.Snapshot() {
		switch e.Kind {
		case provenance.KindBuildCommitted:
			replay[part{e.Name, e.Part}] = true
			commits = append(commits, e)
		case provenance.KindIndexEvicted:
			for p := range replay {
				if p.index == e.Name {
					delete(replay, p)
				}
			}
		case provenance.KindBuildKilled:
			killed[flowOp{e.Flow, e.Op}] = true
		}
	}
	if len(killed) == 0 {
		t.Error("no build was killed; the faulty run does not exercise the check")
	}
	for _, name := range db.Catalog.IndexNames() {
		st := db.Catalog.State(name)
		for _, p := range st.Index.Table.Partitions {
			if got, want := st.Built(p.ID), replay[part{name, p.ID}]; got != want {
				t.Errorf("index %s partition %d: catalog built = %v, replayed log = %v", name, p.ID, got, want)
			}
		}
	}
	for _, e := range commits {
		op := "build:" + db.Catalog.State(e.Name).Index.PartitionPath(e.Part)
		if killed[flowOp{e.Flow, op}] {
			t.Errorf("flow %d: %s was both killed and committed", e.Flow, op)
		}
	}
}

func TestFaultyRunDeterministic(t *testing.T) {
	_, m1 := runFaulty(t, 5, nil, nil)
	_, m2 := runFaulty(t, 5, nil, nil)
	if !reflect.DeepEqual(m1, m2) {
		t.Error("identical faulty runs produced different metrics")
	}
}
