package qaas

import (
	"context"
	"sync"
	"testing"

	"idxflow/internal/core"
	"idxflow/internal/workload"
)

// TestBatchCoalescesQueuedAdmissions blocks the single worker, queues
// several admissions, then releases it: the worker must drain them in one
// batched window (fewer batches than admissions) while every submitter
// still gets its own result.
func TestBatchCoalescesQueuedAdmissions(t *testing.T) {
	cfg := testConfig()
	cfg.BatchMax = 8
	cfg.QueueDepth = 8
	p := New(cfg)
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var mu sync.Mutex
	ran := 0
	p.execOverride = func(ad *admission) admissionResult {
		entered <- struct{}{}
		<-release
		mu.Lock()
		ran++
		mu.Unlock()
		return admissionResult{res: core.FlowResult{Makespan: 1}}
	}

	var wg sync.WaitGroup
	submit := func() {
		defer wg.Done()
		if _, err := p.Submit(context.Background(), "t", dummyFlow()); err != nil {
			t.Errorf("submit: %v", err)
		}
	}
	wg.Add(1)
	go submit()
	<-entered // worker entered admission 1; its batch is sealed at size 1
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go submit()
	}
	waitFor(t, func() bool { return p.QueueDepth() == 4 })
	close(release) // worker finishes #1, then must coalesce the queued 4
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	mu.Lock()
	if ran != 5 {
		t.Fatalf("executed %d admissions, want 5", ran)
	}
	mu.Unlock()
	r := p.Report()
	if r.Admitted != 5 {
		t.Fatalf("admitted %d, want 5", r.Admitted)
	}
	if r.Batch.Batches != 2 {
		t.Fatalf("batches = %d, want 2 (one solo, one coalesced)", r.Batch.Batches)
	}
	if r.Batch.P95Size < 2 {
		t.Fatalf("batch p95 = %g, want >= 2", r.Batch.P95Size)
	}
}

// TestBatchPreservesSettlementAndIsolation runs real executions through
// batched windows across two tenants and checks the per-tenant books and
// results are exactly what the unbatched pipeline produces.
func TestBatchPreservesSettlementAndIsolation(t *testing.T) {
	cfg := testConfig()
	cfg.BatchMax = 8
	cfg.QueueDepth = 16
	cfg.Workers = 1 // one worker maximizes coalescing across tenants
	p := New(cfg)

	tenants := []string{"alpha", "beta"}
	var wg sync.WaitGroup
	for _, tn := range tenants {
		db, err := workload.NewFileDB(TenantSeed(cfg.Seed, tn))
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(db, TenantSeed(cfg.Seed, tn))
		for i := 0; i < 3; i++ {
			flow := gen.Flow(workload.Montage, i, 0)
			tn := tn
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := p.Submit(context.Background(), tn, flow)
				if err != nil {
					t.Errorf("tenant %s: %v", tn, err)
					return
				}
				if res.Makespan <= 0 || res.MoneyQuanta <= 0 {
					t.Errorf("tenant %s: empty result %+v", tn, res)
				}
			}()
		}
	}
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	r := p.Report()
	var sum float64
	for _, tr := range r.Tenants {
		if tr.Metrics.FlowsFinished != 3 {
			t.Errorf("tenant %s finished %d flows, want 3", tr.Tenant, tr.Metrics.FlowsFinished)
		}
		if tr.Settled != tr.Metrics.VMQuanta {
			t.Errorf("tenant %s: ledger %g != service books %g", tr.Tenant, tr.Settled, tr.Metrics.VMQuanta)
		}
		sum += tr.Settled
	}
	if sum != r.Books.Global {
		t.Errorf("tenant settlements %g != global books %g", sum, r.Books.Global)
	}
	if r.Batch.Batches <= 0 || r.Batch.Batches > 6 {
		t.Errorf("batches = %d, want in [1, 6]", r.Batch.Batches)
	}
	if r.Fleet.Reserves != r.Fleet.Releases || r.Fleet.InUse != 0 {
		t.Errorf("fleet not balanced: %+v", r.Fleet)
	}
}
