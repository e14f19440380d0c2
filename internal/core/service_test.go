package core

import (
	"context"
	"testing"

	"idxflow/internal/dataflow"
	"idxflow/internal/provenance"
	"idxflow/internal/telemetry"
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

// TestStorageTransfersTracked: the storage counters count what the pass
// handed the meter. The transferred MB are the committed builds' sizes, a
// rebuilt partition counted again, and the cost counter is the meter's
// accrued cost to the bit.
func TestStorageTransfersTracked(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(Gain)
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Provenance = provenance.NewRecorder(1 << 16)
	svc := NewService(cfg, db)
	svc.Run(gen.RandomWorkload(300, 60), 3000)
	var committed float64
	for _, e := range cfg.Provenance.Snapshot() {
		if e.Kind == provenance.KindBuildCommitted {
			committed += e.SizeMB
		}
	}
	if committed == 0 {
		t.Fatal("no build was committed; nothing was transferred")
	}
	if got := cfg.Telemetry.Counter("idxflow_storage_transferred_mb_total", "").Value(); got != committed {
		t.Errorf("idxflow_storage_transferred_mb_total = %g, committed builds hold %g MB", got, committed)
	}
	if got, want := cfg.Telemetry.Counter("idxflow_storage_cost_dollars_total", "").Value(), svc.storage.CostAccrued(); got != want || want <= 0 {
		t.Errorf("idxflow_storage_cost_dollars_total = %g, the meter accrued %g", got, want)
	}
}

// TestStorageGaugesFollowSettle: every settle sets the footprint gauges to
// the catalog's footprint at that point, evictions included.
func TestStorageGaugesFollowSettle(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(Gain)
	cfg.DeletionGraceQuanta = 2
	cfg.Gain.WindowW = 4
	cfg.Gain.FadeD = 1
	cfg.Telemetry = telemetry.NewRegistry()
	svc := NewService(cfg, db)
	size, files := cfg.Telemetry.Gauge("idxflow_storage_mb", ""), cfg.Telemetry.Gauge("idxflow_storage_files", "")
	deleted, shrank := 0, false
	prev := 0.0
	for i := 0; i < 8; i++ {
		for _, app := range []workload.App{workload.Montage, workload.Ligo} {
			res := svc.SubmitCtx(context.Background(), gen.Flow(app, 100*i, svc.Clock()))
			deleted += len(res.Deleted)
			mb, parts := db.Catalog.Footprint()
			if size.Value() != mb || files.Value() != float64(parts) {
				t.Fatalf("after %s: gauges %g MB in %g files, catalog %g MB in %d", res.Name, size.Value(), files.Value(), mb, parts)
			}
			shrank = shrank || mb < prev
			prev = mb
		}
	}
	if deleted == 0 || !shrank {
		t.Errorf("%d indexes evicted, footprint shrank: %v; the run does not exercise a falling footprint", deleted, shrank)
	}
}

// TestStorageGaugesMatchCatalog: the catalog is the one record of built
// partitions, and after Run the storage gauges read its footprint, with
// partitions built, evicted and built again on the way.
func TestStorageGaugesMatchCatalog(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(Gain)
	cfg.DeletionGraceQuanta = 2
	cfg.Gain.WindowW = 4
	cfg.Gain.FadeD = 1
	cfg.Telemetry = telemetry.NewRegistry()
	svc := NewService(cfg, db)
	var flows []*dataflow.Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, gen.Flow(workload.Montage, i, 0), gen.Flow(workload.Ligo, 100+i, 0))
	}
	m := svc.Run(flows, 1e9)
	deleted := 0
	for _, r := range m.Results {
		deleted += len(r.Deleted)
	}
	if deleted == 0 {
		t.Error("no index was evicted; the run does not exercise Drop")
	}

	var wantMB float64
	wantFiles := 0
	for _, name := range db.Catalog.IndexNames() {
		st := db.Catalog.State(name)
		wantMB += st.BuiltSizeMB()
		for _, p := range st.Index.Table.Partitions {
			if st.Built(p.ID) {
				wantFiles++
			}
		}
	}
	if wantFiles == 0 {
		t.Fatal("nothing is built at the end of the run")
	}
	if got := cfg.Telemetry.Gauge("idxflow_storage_mb", "").Value(); got != wantMB {
		t.Errorf("idxflow_storage_mb = %g, the catalog's built partitions hold %g MB", got, wantMB)
	}
	if got := cfg.Telemetry.Gauge("idxflow_storage_files", "").Value(); got != float64(wantFiles) {
		t.Errorf("idxflow_storage_files = %g, the catalog has %d built partitions", got, wantFiles)
	}
}
