package qaas

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"idxflow/internal/core"
	"idxflow/internal/dataflow"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// testConfig returns a small pipeline configuration over an isolated
// telemetry registry.
func testConfig() Config {
	cc := core.DefaultConfig()
	cc.Sched.MaxSkyline = 4
	cc.Sched.MaxContainers = 8
	cc.MaxBuildOps = 16
	cc.Telemetry = telemetry.NewRegistry()
	return Config{Core: cc, Seed: 1, QueueDepth: 4, Workers: 1,
		FleetContainers: 8}
}

// dummyFlow builds a trivial one-op flow; override-based tests never
// execute it.
func dummyFlow() *dataflow.Flow {
	g := dataflow.New()
	g.Add(dataflow.Operator{Name: "a", Time: 1})
	return &dataflow.Flow{Graph: g}
}

// tenantGenerator returns a generator of flows valid against the file
// database the pipeline serves for tenant.
func tenantGenerator(t *testing.T, cfg Config, tenant string) *workload.Generator {
	t.Helper()
	seed := TenantSeed(cfg.Seed, tenant)
	db, err := workload.NewFileDB(seed)
	if err != nil {
		t.Fatal(err)
	}
	return workload.NewGenerator(db, seed)
}

func TestQueueFullBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	cfg.TenantInflight = -1
	p := New(cfg)
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	p.execOverride = func(ad *admission) admissionResult {
		entered <- struct{}{}
		<-release
		return admissionResult{res: core.FlowResult{Makespan: 1}}
	}

	var wg sync.WaitGroup
	submit := func() {
		defer wg.Done()
		if _, err := p.Submit(context.Background(), "t", dummyFlow()); err != nil {
			t.Errorf("blocked submit failed: %v", err)
		}
	}
	// One executing first: waiting for the worker to hold it guarantees
	// the queue has room for exactly the next two.
	wg.Add(1)
	go submit()
	<-entered                // worker holds one admission
	for i := 0; i < 2; i++ { // 2 queued
		wg.Add(1)
		go submit()
	}
	waitFor(t, func() bool { return p.QueueDepth() == 2 })

	_, err := p.Submit(context.Background(), "t", dummyFlow())
	var bp *BackpressureError
	if !errors.As(err, &bp) {
		t.Fatalf("full queue: got err %v, want *BackpressureError", err)
	}
	if bp.Reason != "queue-full" {
		t.Errorf("reason = %q, want queue-full", bp.Reason)
	}
	if bp.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", bp.RetryAfter)
	}

	close(release)
	wg.Wait()
	for i := 0; i < 2; i++ {
		<-entered
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := p.rejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestWorkersBoundConcurrentExecutions holds the single worker inside an
// execution, queues one admission for each of six tenants and releases it:
// Workers is the bound on concurrent executions, however many tenants wait.
func TestWorkersBoundConcurrentExecutions(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 8
	p := New(cfg)
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var mu sync.Mutex
	running, peak := 0, 0
	p.execOverride = func(ad *admission) admissionResult {
		mu.Lock()
		running++
		peak = max(peak, running)
		mu.Unlock()
		entered <- struct{}{}
		<-release
		// Long enough for a second execution, were one allowed, to overlap.
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
		return admissionResult{res: core.FlowResult{Makespan: 1}}
	}

	var wg sync.WaitGroup
	submit := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Submit(context.Background(), tenant, dummyFlow()); err != nil {
				t.Errorf("tenant %s submit failed: %v", tenant, err)
			}
		}()
	}
	submit("holder")
	<-entered // the worker is inside the first execution
	for _, tenant := range []string{"a", "b", "c", "d", "e", "f"} {
		submit(tenant)
	}
	waitFor(t, func() bool { return p.QueueDepth() == 6 })
	close(release)
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := p.admitted.Load(); got != 7 {
		t.Errorf("admitted %d, want 7", got)
	}
	if peak != 1 {
		t.Errorf("peak concurrent executions = %d, want 1 (Workers: 1)", peak)
	}
}

func TestTenantFairShareIsolation(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 16
	cfg.TenantInflight = 2
	p := New(cfg)
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	p.execOverride = func(ad *admission) admissionResult {
		entered <- struct{}{}
		<-release
		return admissionResult{res: core.FlowResult{Makespan: 1}}
	}

	var wg sync.WaitGroup
	submit := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Submit(context.Background(), tenant, dummyFlow()); err != nil {
				t.Errorf("tenant %s submit failed: %v", tenant, err)
			}
		}()
	}
	submit("other") // occupies the single worker
	<-entered
	submit("a")
	submit("a")
	ta, err := p.Tenant("a")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return ta.inflight.Load() == 2 })

	_, err = p.Submit(context.Background(), "a", dummyFlow())
	var bp *BackpressureError
	if !errors.As(err, &bp) || bp.Reason != "tenant-limit" {
		t.Fatalf("over fair share: got %v, want tenant-limit backpressure", err)
	}
	// Tenant b has its own budget: same instant, same pipeline, admitted.
	submit("b")
	tb, err := p.Tenant("b")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return tb.inflight.Load() == 1 })

	close(release)
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if ta.inflight.Load() != 0 || tb.inflight.Load() != 0 {
		t.Errorf("inflight not drained: a=%d b=%d", ta.inflight.Load(), tb.inflight.Load())
	}
}

func TestDrainCompletesInflightAndRejectsNew(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 2
	cfg.QueueDepth = 8
	p := New(cfg)
	var executed atomic32
	// No admission completes before the test has seen all n in flight and
	// Drain has begun, so Drain is what waits for them.
	release := make(chan struct{})
	p.execOverride = func(ad *admission) admissionResult {
		<-release
		executed.add(1)
		return admissionResult{res: core.FlowResult{Makespan: 1}}
	}

	const n = 5
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Submit(context.Background(), "t", dummyFlow()); err != nil {
				t.Errorf("submit before drain failed: %v", err)
			}
		}()
	}
	waitFor(t, func() bool { return p.inFlight.Load() == n })

	drained := make(chan error, 1)
	go func() { drained <- p.Drain(context.Background()) }()
	waitFor(t, func() bool {
		p.drainMu.RLock()
		defer p.drainMu.RUnlock()
		return p.draining
	})
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if got := executed.load(); got != n {
		t.Errorf("drain completed %d of %d in-flight admissions", got, n)
	}
	_, err := p.Submit(context.Background(), "t", dummyFlow())
	var bp *BackpressureError
	if !errors.As(err, &bp) || bp.Reason != "draining" {
		t.Fatalf("submit after drain: got %v, want draining backpressure", err)
	}
}

func TestSubmitReturnsOnContextCancelWhileQueued(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 4
	p := New(cfg)
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	p.execOverride = func(ad *admission) admissionResult {
		if ad.ctx.Err() != nil {
			return admissionResult{res: core.FlowResult{Cancelled: true}, err: ad.ctx.Err()}
		}
		entered <- struct{}{}
		<-release
		return admissionResult{res: core.FlowResult{Makespan: 1}}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the single worker
		defer wg.Done()
		if _, err := p.Submit(context.Background(), "t", dummyFlow()); err != nil {
			t.Errorf("first submit failed: %v", err)
		}
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.Submit(ctx, "t", dummyFlow())
		errc <- err
	}()
	waitFor(t, func() bool { return p.QueueDepth() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: got %v, want context.Canceled", err)
	}

	close(release)
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The worker drained the abandoned admission without charging it.
	if got := p.admitted.Load(); got != 1 {
		t.Errorf("admitted = %d, want 1 (cancelled admission must not count)", got)
	}
	if got := p.inFlight.Load(); got != 0 {
		t.Errorf("inFlight = %d after drain, want 0", got)
	}
}

// TestTenantNameValidationAndCap covers the untrusted-input guards:
// malformed names never instantiate state, the MaxTenants cap bounds how
// many distinct tenants a client can allocate, and Lookup never creates.
func TestTenantNameValidationAndCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTenants = 2
	p := New(cfg)
	defer p.Drain(context.Background())

	for _, bad := range []string{"", strings.Repeat("x", MaxTenantNameLen+1), "a b", "a/b", "naïve"} {
		if _, err := p.Tenant(bad); !errors.Is(err, ErrTenantName) {
			t.Errorf("Tenant(%q) err = %v, want ErrTenantName", bad, err)
		}
	}
	if _, err := p.Submit(context.Background(), "a b", dummyFlow()); !errors.Is(err, ErrTenantName) {
		t.Errorf("Submit with bad tenant err = %v, want ErrTenantName", err)
	}

	for _, name := range []string{"a", "b"} {
		if _, err := p.Tenant(name); err != nil {
			t.Fatalf("Tenant(%q): %v", name, err)
		}
	}
	if _, err := p.Tenant("a"); err != nil {
		t.Errorf("existing tenant rejected after cap filled: %v", err)
	}
	if _, err := p.Tenant("c"); !errors.Is(err, ErrTenantCapacity) {
		t.Errorf("over-cap Tenant err = %v, want ErrTenantCapacity", err)
	}
	if p.Lookup("c") != nil {
		t.Error("Lookup instantiated a tenant")
	}
	if p.Lookup("a") == nil {
		t.Error("Lookup misses an instantiated tenant")
	}
	if got := len(p.Tenants()); got != 2 {
		t.Errorf("tenants = %d, want 2 (cap)", got)
	}
}

// TestDrainTimeoutStillStopsWorkers proves a timed-out Drain does not
// leak the worker pool: the queue is closed even on ctx expiry, so once
// the in-flight work unblocks the workers finish what was queued and
// exit, and a second Drain completes cleanly.
func TestDrainTimeoutStillStopsWorkers(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 4
	p := New(cfg)
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	p.execOverride = func(ad *admission) admissionResult {
		entered <- struct{}{}
		<-release
		return admissionResult{res: core.FlowResult{Makespan: 1}}
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one executing + one queued (single worker)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Submit(context.Background(), "t", dummyFlow()); err != nil {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	<-entered
	waitFor(t, func() bool { return p.QueueDepth() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with expired ctx: err = %v, want context.Canceled", err)
	}

	close(release)
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("second drain after timeout: %v", err)
	}
	if got := p.inFlight.Load(); got != 0 {
		t.Errorf("inFlight = %d after workers stopped, want 0", got)
	}
}

func TestTenantSeedDeterministicAndDistinct(t *testing.T) {
	if TenantSeed(7, "alice") != TenantSeed(7, "alice") {
		t.Error("TenantSeed is not deterministic")
	}
	if TenantSeed(7, "alice") == TenantSeed(7, "bob") {
		t.Error("distinct tenants share a seed")
	}
	if TenantSeed(7, "alice") == TenantSeed(8, "alice") {
		t.Error("base seed does not influence tenant seed")
	}
}

func TestRealExecutionSettlesBooks(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 2
	cfg.QueueDepth = 8
	p := New(cfg)

	tenants := []string{"alpha", "beta"}
	var wg sync.WaitGroup
	for _, tn := range tenants {
		gen := tenantGenerator(t, cfg, tn)
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
	if r.InFlight != 0 {
		t.Fatalf("InFlight = %d after drain", r.InFlight)
	}
	if len(r.Tenants) != 2 {
		t.Fatalf("tenants in report = %d, want 2", len(r.Tenants))
	}
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
	if r.Fleet.Reserves != r.Fleet.Releases || r.Fleet.InUse != 0 {
		t.Errorf("fleet not balanced: %+v", r.Fleet)
	}
	if r.Fleet.Peak > r.Fleet.Capacity {
		t.Errorf("fleet over-booked: peak %d > capacity %d", r.Fleet.Peak, r.Fleet.Capacity)
	}
}

// waitFor polls cond for up to 2s; a helper instead of bare sleeps so the
// tests stay fast and non-flaky.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}

// atomic32 is a tiny counter for test assertions.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic32) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// TestAccessorsAndBackpressureError covers the small read-only surface the
// server and loadgen lean on: tenant accessors, the sorted Tenants listing,
// the registry handle and the error string.
func TestAccessorsAndBackpressureError(t *testing.T) {
	cfg := testConfig()
	p := New(cfg)
	defer p.Drain(context.Background())

	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := p.Tenant(name); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, tn := range p.Tenants() {
		got = append(got, tn.Name())
		if tn.Admitted() != 0 {
			t.Errorf("tenant %s admitted %d before any submission", tn.Name(), tn.Admitted())
		}
		if tn.Recorder() == nil {
			t.Errorf("tenant %s has no provenance recorder", tn.Name())
		}
	}
	if want := []string{"alpha", "mid", "zeta"}; !slices.Equal(got, want) {
		t.Errorf("Tenants() order = %v, want %v", got, want)
	}
	if p.Telemetry() != cfg.Core.Telemetry {
		t.Error("Telemetry() is not the configured registry")
	}

	e := &BackpressureError{Reason: "queue-full", RetryAfter: 2 * time.Second}
	if msg := e.Error(); !strings.Contains(msg, "queue-full") || !strings.Contains(msg, "2s") {
		t.Errorf("Error() = %q, want reason and retry-after in message", msg)
	}
}

// TestBatchPreservesSettlementAndIsolation submits a batch of real
// executions for two tenants at once through a single worker and checks
// every tenant's books, the global ledger and the fleet.
func TestBatchPreservesSettlementAndIsolation(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 16
	p := New(cfg)

	tenants := []string{"alpha", "beta"}
	var wg sync.WaitGroup
	for _, tn := range tenants {
		gen := tenantGenerator(t, cfg, tn)
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
	if r.Fleet.Reserves != r.Fleet.Releases || r.Fleet.InUse != 0 {
		t.Errorf("fleet not balanced: %+v", r.Fleet)
	}
}

// TestCancelledAdmissionSettlesNothing runs a real (not overridden)
// execution whose context is already cancelled: the worker still drains
// the admission, and it is neither counted, charged nor left holding a
// fleet slot or a share of the tenant's in-flight cap.
func TestCancelledAdmissionSettlesNothing(t *testing.T) {
	cfg := testConfig()
	p := New(cfg)
	flow := tenantGenerator(t, cfg, "t").Flow(workload.Montage, 0, 0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Submit(ctx, "t", flow); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: got %v, want context.Canceled", err)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := p.Report()
	if r.Admitted != 0 || r.InFlight != 0 {
		t.Errorf("admitted %d, in flight %d, want 0 and 0", r.Admitted, r.InFlight)
	}
	if r.Books.Global != 0 {
		t.Errorf("global books %g, want 0: a cancelled admission charges nothing", r.Books.Global)
	}
	if r.Fleet.InUse != 0 || r.Fleet.Reserves != r.Fleet.Releases {
		t.Errorf("fleet not balanced: %+v", r.Fleet)
	}
	tn, err := p.Tenant("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.inflight.Load(); got != 0 {
		t.Errorf("tenant in-flight = %d, want 0", got)
	}
}

// TestFleetGaugeMatchesStats: rounds of reserve/release pairs racing on one
// fleet each leave the in-use gauge at what the fleet holds, zero.
func TestFleetGaugeMatchesStats(t *testing.T) {
	g := telemetry.NewRegistry().Gauge("idxflow_qaas_fleet_in_use", "")
	f := newFleet(4, 0, 60, g)
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					f.reserve(n)(0)
				}
			}(1 + i%2)
		}
		wg.Wait()
		if st := f.stats(); st.InUse != 0 || g.Value() != float64(st.InUse) {
			t.Fatalf("round %d: gauge %g, fleet holds %d, want both 0", round, g.Value(), st.InUse)
		}
	}
}
