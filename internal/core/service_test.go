package core

import (
	"context"
	"testing"

	"idxflow/internal/workload"
)

// quickConfig returns a configuration small enough for unit tests.
func quickConfig(strategy Strategy) Config {
	cfg := DefaultConfig()
	cfg.Strategy = strategy
	cfg.Sched.MaxSkyline = 4
	cfg.Sched.MaxContainers = 20
	cfg.MaxBuildOps = 24
	// A wide window and slow fading keep indexes beneficial across the
	// short test workloads.
	cfg.Gain.WindowW = 30
	cfg.Gain.FadeD = 30
	return cfg
}

func testDB(t *testing.T) *workload.FileDB {
	t.Helper()
	db, err := workload.NewFileDB(1)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSubmitNoIndexExecutesFlow(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	svc := NewService(quickConfig(NoIndex), db)
	flow := gen.Flow(workload.Montage, 0, 100)
	res := svc.SubmitCtx(context.Background(), flow)
	if res.Makespan <= 0 {
		t.Errorf("Makespan = %g, want > 0", res.Makespan)
	}
	if res.MoneyQuanta <= 0 {
		t.Errorf("MoneyQuanta = %g, want > 0", res.MoneyQuanta)
	}
	if res.BuildsCompleted != 0 || len(res.IndexesUsed) != 0 {
		t.Errorf("NoIndex built/used indexes: %+v", res)
	}
	if got := svc.Clock(); got != 100+res.Makespan {
		t.Errorf("clock = %g, want %g", got, 100+res.Makespan)
	}
	if db.Catalog.AvailableCount() != 0 {
		t.Error("NoIndex strategy created indexes")
	}
}

func TestGainStrategyBuildsAndUsesIndexes(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	svc := NewService(quickConfig(Gain), db)

	// Repeated montage flows make the same indexes repeatedly useful.
	var builds int
	var firstMakespan, lastMakespan float64
	for i := 0; i < 6; i++ {
		flow := gen.Flow(workload.Montage, i, svc.Clock())
		res := svc.SubmitCtx(context.Background(), flow)
		builds += res.BuildsCompleted
		if i == 0 {
			firstMakespan = res.Makespan
		}
		lastMakespan = res.Makespan
	}
	if builds == 0 {
		t.Fatal("gain strategy never built an index partition")
	}
	if db.Catalog.AvailableCount() == 0 {
		t.Fatal("no indexes available after builds")
	}
	if lastMakespan >= firstMakespan {
		t.Errorf("makespan did not improve: first %g, last %g", firstMakespan, lastMakespan)
	}
}

func TestGainStrategyDeletesWhenWorkloadMovesOn(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(Gain)
	// Tight window, fast fading and a short grace so abandonment is
	// detected quickly.
	cfg.Gain.WindowW = 4
	cfg.Gain.FadeD = 1
	cfg.DeletionGraceQuanta = 8
	svc := NewService(cfg, db)

	for i := 0; i < 5; i++ {
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
	}
	if db.Catalog.AvailableCount() == 0 {
		t.Skip("no montage indexes were built in this configuration")
	}
	// Switch to ligo; montage indexes should eventually be deleted.
	deleted := 0
	for i := 0; i < 8; i++ {
		res := svc.SubmitCtx(context.Background(), gen.Flow(workload.Ligo, 100+i, svc.Clock()))
		deleted += len(res.Deleted)
	}
	if deleted == 0 {
		t.Error("no index was deleted after the workload moved on")
	}
}

func TestGainNoDeleteKeepsIndexes(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(GainNoDelete)
	cfg.Gain.WindowW = 4
	cfg.Gain.FadeD = 1
	svc := NewService(cfg, db)
	for i := 0; i < 5; i++ {
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
	}
	before := db.Catalog.AvailableCount()
	for i := 0; i < 6; i++ {
		res := svc.SubmitCtx(context.Background(), gen.Flow(workload.Ligo, 100+i, svc.Clock()))
		if len(res.Deleted) != 0 {
			t.Fatalf("GainNoDelete deleted %v", res.Deleted)
		}
	}
	if after := db.Catalog.AvailableCount(); after < before {
		t.Errorf("index count dropped %d -> %d under no-delete", before, after)
	}
}

func TestRandomStrategyBuildsSomething(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	svc := NewService(quickConfig(RandomIndex), db)
	builds := 0
	for i := 0; i < 6; i++ {
		res := svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
		builds += res.BuildsCompleted
	}
	if builds == 0 {
		t.Error("random strategy never completed a build")
	}
}

func TestRunCountsOnlyFinishedWithinHorizon(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	svc := NewService(quickConfig(NoIndex), db)
	fs := gen.RandomWorkload(600, 60)
	if len(fs) == 0 {
		t.Skip("no flows generated")
	}
	m := svc.Run(fs, 900)
	if m.FlowsSubmitted == 0 {
		t.Fatal("nothing submitted")
	}
	if m.FlowsFinished > m.FlowsSubmitted {
		t.Errorf("finished %d > submitted %d", m.FlowsFinished, m.FlowsSubmitted)
	}
	if m.VMCost <= 0 {
		t.Errorf("VMCost = %g, want > 0", m.VMCost)
	}
	if m.FlowsFinished > 0 && m.CostPerFlow <= 0 {
		t.Errorf("CostPerFlow = %g, want > 0", m.CostPerFlow)
	}
}

func TestRuntimeErrorInjection(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(NoIndex)
	cfg.RuntimeError = 0.5
	svc := NewService(cfg, db)
	res := svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, 0, 0))
	if res.Makespan <= 0 {
		t.Errorf("Makespan = %g", res.Makespan)
	}
}

func TestOnlineInterleaveConfig(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(Gain)
	cfg.Algo = OnlineInterleave
	svc := NewService(cfg, db)
	for i := 0; i < 3; i++ {
		res := svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
		if res.Makespan <= 0 {
			t.Fatalf("flow %d failed", i)
		}
	}
}

func TestStorageAccounting(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	svc := NewService(quickConfig(Gain), db)
	m := svc.Run(gen.RandomWorkload(300, 60), 3000)
	if m.FlowsFinished > 0 && db.Catalog.AvailableCount() > 0 && m.StorageCost <= 0 {
		t.Error("indexes exist but no storage cost accrued")
	}
	if len(m.Timeline) == 0 {
		t.Error("no timeline points recorded")
	}
}
