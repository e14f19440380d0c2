package qaas_test

import (
	"context"
	"sync"
	"testing"

	"idxflow/internal/check"
	"idxflow/internal/core"
	"idxflow/internal/qaas"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// TestConcurrentAdmissionsAuditClean is the tentpole integration test:
// several tenants submit concurrently through the worker pool, every
// execution is audited in-line (check.Audit via the PostExec hook), and
// the drained pipeline's snapshot passes check.AuditQaaS — books balance
// across tenants, no fleet slot was double-booked, and every tenant's
// provenance log agrees with its own aggregates.
func TestConcurrentAdmissionsAuditClean(t *testing.T) {
	auditor := &check.ExecAuditor{}
	cc := core.DefaultConfig()
	cc.Sched.MaxSkyline = 4
	cc.Sched.MaxContainers = 8
	cc.MaxBuildOps = 16
	cc.Telemetry = telemetry.NewRegistry()
	p := qaas.New(qaas.Config{
		Core:            cc,
		Seed:            1,
		Workers:         4,
		QueueDepth:      64,
		FleetContainers: 16,
		PostExec:        auditor.Hook,
	})

	tenants := []string{"t0", "t1", "t2", "t3"}
	const perTenant = 5
	var wg sync.WaitGroup
	for _, tn := range tenants {
		db, err := workload.NewFileDB(qaas.TenantSeed(1, tn))
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(db, qaas.TenantSeed(1, tn))
		for i := 0; i < perTenant; i++ {
			flow := gen.Flow(workload.Apps[i%len(workload.Apps)], i, 0)
			tn := tn
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := p.Submit(context.Background(), tn, flow); err != nil {
					t.Errorf("tenant %s: %v", tn, err)
				}
			}()
		}
	}
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if err := auditor.Err(); err != nil {
		t.Errorf("per-execution audit: %v", err)
	}
	if got, want := auditor.Executions(), len(tenants)*perTenant; got != want {
		t.Errorf("audited %d executions, want %d", got, want)
	}

	r := p.Report()
	if err := check.AuditQaaS(r); err != nil {
		t.Errorf("AuditQaaS: %v", err)
	}
	if r.Admitted != int64(len(tenants)*perTenant) {
		t.Errorf("admitted = %d, want %d", r.Admitted, len(tenants)*perTenant)
	}
}

// TestTenantIsolation proves one tenant's adopted indexes and provenance
// events are invisible to another: the same flows submitted for tenant A
// must not leak catalog state into tenant B's snapshot.
func TestTenantIsolation(t *testing.T) {
	cc := core.DefaultConfig()
	cc.Sched.MaxSkyline = 4
	cc.Sched.MaxContainers = 8
	cc.MaxBuildOps = 16
	// Wide window / slow fade so the repeated flows adopt indexes.
	cc.Gain.WindowW = 30
	cc.Gain.FadeD = 30
	cc.Telemetry = telemetry.NewRegistry()
	p := qaas.New(qaas.Config{Core: cc, Seed: 1, Workers: 1, FleetContainers: 8})

	db, err := workload.NewFileDB(qaas.TenantSeed(1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(db, qaas.TenantSeed(1, "a"))
	for i := 0; i < 6; i++ {
		if _, err := p.Submit(context.Background(), "a", gen.Flow(workload.Montage, i, 0)); err != nil {
			t.Fatal(err)
		}
	}

	ta, err := p.Tenant("a")
	if err != nil {
		t.Fatal(err)
	}
	var adopted int
	ta.Do(func(svc *core.Service, db *workload.FileDB) {
		adopted = db.Catalog.AvailableCount()
	})
	if adopted == 0 {
		t.Fatal("tenant a adopted no indexes; isolation test needs a non-empty catalog")
	}

	// Tenant b exists but has run nothing: its catalog and provenance
	// must be empty regardless of a's activity.
	tb, err := p.Tenant("b")
	if err != nil {
		t.Fatal(err)
	}
	tb.Do(func(svc *core.Service, db *workload.FileDB) {
		if n := db.Catalog.AvailableCount(); n != 0 {
			t.Errorf("tenant b sees %d indexes from tenant a", n)
		}
	})
	if n := tb.Recorder().Len(); n != 0 {
		t.Errorf("tenant b has %d provenance events without any submission", n)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
