package core

import (
	"context"
	"testing"

	"idxflow/internal/dataflow"
	"idxflow/internal/sched"
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
		cfg.DedicatedMargin = 1.5
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

// TestDedicatedBuildsRespectMargin: with an absurd margin nothing extra is
// scheduled, so the run matches the plain one.
func TestDedicatedBuildsRespectMargin(t *testing.T) {
	run := func(margin float64) (int, float64) {
		db := testDB(t)
		gen := workload.NewGenerator(db, 2)
		cfg := quickConfig(Gain)
		cfg.AllowDedicatedBuilds = true
		cfg.DedicatedMargin = margin
		svc := NewService(cfg, db)
		builds := 0
		var money float64
		for i := 0; i < 2; i++ {
			res := svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
			builds += res.BuildsCompleted
			money += res.MoneyQuanta
		}
		return builds, money
	}
	_, moneyHuge := run(1e12)
	_, moneyLow := run(1.2)
	if moneyLow < moneyHuge {
		t.Errorf("paying for dedicated builds cannot reduce VM cost: %g < %g", moneyLow, moneyHuge)
	}
}

// TestDedicatedMarginZeroMeansTwo: an unset DedicatedMargin runs at the
// documented default of 2, not at the floor of 1 that other values below 1
// are raised to. The one unplaced build's gain covers its dedicated quantum
// 1.5 times, so margin 1 builds it and margin 2 does not.
func TestDedicatedMarginZeroMeansTwo(t *testing.T) {
	placed := func(margin float64) bool {
		cfg := quickConfig(Gain)
		cfg.AllowDedicatedBuilds = true
		cfg.DedicatedMargin = margin
		svc := NewService(cfg, testDB(t))
		pr := cfg.Sched.Pricing
		g := dataflow.New()
		scan := g.Add(dataflow.Operator{Name: "scan", Time: 30})
		build := g.Add(dataflow.Operator{Name: "build", Time: 30, Priority: -1, Optional: true})
		s := sched.NewSchedule(g, pr, cfg.Sched.Spec)
		if _, err := s.Append(scan, 0, -1); err != nil {
			t.Fatal(err)
		}
		p := &pass{chosen: s, builds: []buildCandidate{{index: "i", op: build, gain: 1.5 * pr.VMPerQuantum}}}
		svc.dedicate(p)
		_, ok := s.Assignment(build)
		return ok
	}
	for _, c := range []struct {
		margin float64
		want   bool
	}{{1, true}, {2, false}, {0, false}, {0.5, true}} {
		if got := placed(c.margin); got != c.want {
			t.Errorf("margin %g: build placed = %v, want %v", c.margin, got, c.want)
		}
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

// TestBatchUpdatesInvalidateIndexes: periodic updates bump partition
// versions and delete the index partitions built on them, which the tuner
// then rebuilds.
func TestBatchUpdatesInvalidateIndexes(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(Gain)
	cfg.UpdateEveryQuanta = 2
	cfg.UpdateFraction = 0.5 // aggressive, to force invalidations
	svc := NewService(cfg, db)
	for i := 0; i < 6; i++ {
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
	}
	if svc.InvalidatedPartitions == 0 {
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
	svc := NewService(quickConfig(Gain), db)
	for i := 0; i < 3; i++ {
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
	}
	if svc.InvalidatedPartitions != 0 {
		t.Errorf("updates applied without configuration: %d", svc.InvalidatedPartitions)
	}
}
