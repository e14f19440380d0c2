package core

import (
	"context"
	"testing"

	"idxflow/internal/dataflow"
	"idxflow/internal/sched"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// TestDedicatedBuildsAccelerateColdStart: with the delayed-building
// extension enabled, high-gain index partitions that do not fit idle slots
// are built on a paid dedicated container, so coverage grows faster than
// with interleaving alone.
func TestDedicatedBuildsAccelerateColdStart(t *testing.T) {
	buildCount := func(dedicated bool) int {
		db := testDB(t)
		gen := workload.NewGenerator(db, 2)
		cfg := quickConfig(Gain)
		cfg.AllowDedicatedBuilds = dedicated
		svc := NewService(cfg, db)
		total := 0
		for i := 0; i < 3; i++ {
			res := svc.SubmitCtx(context.Background(), gen.Flow(workload.Cybershake, i, svc.Clock()))
			total += res.BuildsCompleted
		}
		return total
	}
	plain := buildCount(false)
	dedicated := buildCount(true)
	if dedicated < plain {
		t.Errorf("dedicated builds completed %d < plain %d", dedicated, plain)
	}
}

// dedicatedPlaced drives dedicate with one build the interleaver left
// unplaced, whose gain is ratio times the quantum a dedicated container for
// it costs, and reports whether the build was placed.
func dedicatedPlaced(t *testing.T, ratio float64) bool {
	t.Helper()
	cfg := quickConfig(Gain)
	cfg.AllowDedicatedBuilds = true
	svc := NewService(cfg, testDB(t))
	pr := cfg.Sched.Pricing
	g := dataflow.New()
	scan := g.Add(dataflow.Operator{Name: "scan", Time: 30})
	build := g.Add(dataflow.Operator{Name: "build", Time: 30, Priority: -1, Optional: true})
	s := sched.NewSchedule(g, pr, cfg.Sched.Spec)
	if _, err := s.Append(scan, 0); err != nil {
		t.Fatal(err)
	}
	p := &pass{chosen: s, builds: []buildCandidate{{index: "i", op: build, gain: ratio * pr.VMPerQuantum}}}
	svc.dedicate(p)
	_, ok := s.Assignment(build)
	return ok
}

// TestDedicatedBuildsRespectMargin: a build whose gain covers its dedicated
// quantum 1.5 times stays unbuilt, and one that covers it 2.5 times is built.
func TestDedicatedBuildsRespectMargin(t *testing.T) {
	if dedicatedPlaced(t, 1.5) {
		t.Error("a build covering its quantum 1.5x was placed; the margin is 2")
	}
	if !dedicatedPlaced(t, 2.5) {
		t.Error("a build covering its quantum 2.5x was not placed")
	}
}

// TestDedicatedMarginZeroMeansTwo: the margin is 2 and its boundary is
// inclusive: a build whose gain is exactly twice its quantum is built, one
// just below is not.
func TestDedicatedMarginZeroMeansTwo(t *testing.T) {
	if dedicatedMargin != 2 {
		t.Fatalf("dedicatedMargin = %g, want 2", float64(dedicatedMargin))
	}
	if !dedicatedPlaced(t, dedicatedMargin) {
		t.Error("a build covering its quantum exactly 2x was not placed")
	}
	if dedicatedPlaced(t, dedicatedMargin*(1-1e-9)) {
		t.Error("a build covering its quantum just under 2x was placed")
	}
}

// TestAdaptiveFadingRuns: the adaptive controller is exercised end to end
// and changes per-index fading without breaking the service.
func TestAdaptiveFadingRuns(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(Gain)
	cfg.AdaptiveFading = true
	cfg.DeletionGraceQuanta = 2
	cfg.Gain.WindowW = 4
	cfg.Gain.FadeD = 1
	svc := NewService(cfg, db)
	if svc.fader == nil {
		t.Fatal("fader not installed")
	}
	// Alternate apps to provoke deletions and renewed requests.
	for i := 0; i < 4; i++ {
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Ligo, 100+i, svc.Clock()))
	}
	// At least some index should have a non-default controller by now.
	changed := false
	for _, name := range db.Catalog.IndexNames() {
		if svc.fader.D(name) != cfg.Gain.FadeD {
			changed = true
			break
		}
	}
	if !changed {
		t.Log("no per-index controller diverged (acceptable, but unusual for this workload)")
	}
}

// invalidatedTotal reads idxflow_index_partitions_invalidated_total.
func invalidatedTotal(reg *telemetry.Registry) float64 {
	return reg.Counter("idxflow_index_partitions_invalidated_total", "").Value()
}

// TestBatchUpdatesInvalidateIndexes: periodic updates delete the index
// partitions built on the updated partitions, which the tuner then
// rebuilds.
func TestBatchUpdatesInvalidateIndexes(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(Gain)
	cfg.UpdateEveryQuanta = 2
	cfg.UpdateFraction = 0.5 // aggressive, to force invalidations
	cfg.Telemetry = telemetry.NewRegistry()
	svc := NewService(cfg, db)
	for i := 0; i < 6; i++ {
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
	}
	if invalidatedTotal(cfg.Telemetry) == 0 {
		t.Error("no index partition was invalidated by batch updates")
	}
	// The service keeps working and indexes keep getting rebuilt.
	res := svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, 99, svc.Clock()))
	if res.Makespan <= 0 {
		t.Error("service broken after updates")
	}
}

// TestBatchUpdatesDisabledByDefault: no updates unless configured.
func TestBatchUpdatesDisabledByDefault(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(Gain)
	cfg.Telemetry = telemetry.NewRegistry()
	svc := NewService(cfg, db)
	for i := 0; i < 3; i++ {
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
	}
	if n := invalidatedTotal(cfg.Telemetry); n != 0 {
		t.Errorf("updates applied without configuration: %g", n)
	}
}
