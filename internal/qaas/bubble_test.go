//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// The tests in this file run the pipeline inside testing/synctest bubbles,
// where synctest.Wait replaces polling: it returns once every other
// goroutine of the bubble is blocked on a channel of the bubble. They are
// pinned to Go 1.24's API, synctest.Run, which exists only under
// GOEXPERIMENT=synctest (Go 1.25 replaces it with synctest.Test). The
// module's go 1.22 line defaults to asynchronous timer channels, under
// which synctest.Run panics; the go:debug line above turns them off. Run
// them with
//
//	GOEXPERIMENT=synctest go test -run Bubble -count=1000 ./internal/qaas
//
// synctest.Run calls its function on a goroutine of its own, where t.Fatal
// must not be called, so the tests report with t.Errorf and go on.

package qaas

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"idxflow/internal/core"
	"idxflow/internal/dataflow"
)

// heldPasses installs an override whose passes block until release is
// closed, and returns the count of passes run.
func heldPasses(p *Pipeline, release chan struct{}) *atomic32 {
	calls := &atomic32{}
	p.execOverride = func(*Tenant, context.Context, *dataflow.Flow) (core.FlowResult, error) {
		calls.add(1)
		<-release
		return core.FlowResult{Makespan: 1}, nil
	}
	return calls
}

// TestBubbleQueueFullBackpressure: one pass holds the single slot and two
// submitters wait for it, so the next submit is rejected as queue-full.
func TestBubbleQueueFullBackpressure(t *testing.T) {
	synctest.Run(func() {
		cfg := testConfig()
		cfg.QueueDepth = 2
		cfg.TenantInflight = -1
		p := New(cfg)
		release := make(chan struct{})
		calls := heldPasses(p, release)

		var wg sync.WaitGroup
		submit := func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := p.Submit(context.Background(), "t", dummyFlow()); err != nil {
					t.Errorf("blocked submit failed: %v", err)
				}
			}()
		}
		submit()
		synctest.Wait() // the first pass holds the slot
		submit()
		submit()
		synctest.Wait() // both wait for the slot
		if q, n := p.QueueDepth(), calls.load(); q != 2 || n != 1 {
			t.Errorf("queue depth %d with %d passes running, want 2 and 1", q, n)
		}

		_, err := p.Submit(context.Background(), "t", dummyFlow())
		var bp *BackpressureError
		if !errors.As(err, &bp) || bp.Reason != "queue-full" || bp.RetryAfter <= 0 {
			t.Errorf("full queue: got err %v, want queue-full backpressure with a retry hint", err)
		}

		close(release)
		wg.Wait()
		if err := p.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
		if r, n := p.rejected.Load(), calls.load(); r != 1 || n != 3 {
			t.Errorf("rejected %d, passes run %d; want 1 and 3", r, n)
		}
	})
}

// TestBubbleSubmitReturnsOnContextCancelWhileQueued: a submitter whose
// context ends while it waits for the slot returns context.Canceled at
// once, leaves the queue and the in-flight count, and runs no pass.
func TestBubbleSubmitReturnsOnContextCancelWhileQueued(t *testing.T) {
	synctest.Run(func() {
		cfg := testConfig()
		cfg.QueueDepth = 4
		p := New(cfg)
		release := make(chan struct{})
		calls := heldPasses(p, release)

		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // occupies the single slot
			defer wg.Done()
			if _, err := p.Submit(context.Background(), "t", dummyFlow()); err != nil {
				t.Errorf("first submit failed: %v", err)
			}
		}()
		synctest.Wait()

		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := p.Submit(ctx, "t", dummyFlow())
			errc <- err
		}()
		synctest.Wait()
		if q := p.QueueDepth(); q != 1 {
			t.Errorf("queue depth %d before the cancel, want 1", q)
		}
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter: got %v, want context.Canceled", err)
		}
		if q, n := p.QueueDepth(), p.inFlight.Load(); q != 0 || n != 1 {
			t.Errorf("after the waiter left: queue depth %d, in flight %d; want 0 and 1", q, n)
		}

		close(release)
		wg.Wait()
		if err := p.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
		if a, n := p.admitted.Load(), calls.load(); a != 1 || n != 1 {
			t.Errorf("admitted %d, passes run %d; want 1 and 1 (none for the cancelled waiter)", a, n)
		}
		if got := p.inFlight.Load(); got != 0 {
			t.Errorf("inFlight = %d after drain, want 0", got)
		}
	})
}

// TestBubbleTenantFairShareIsolation: with the single slot held, tenant a's
// two waiting admissions fill its fair share, so a third is rejected as
// tenant-limit while tenant b, at the same instant, is admitted.
func TestBubbleTenantFairShareIsolation(t *testing.T) {
	synctest.Run(func() {
		cfg := testConfig()
		cfg.QueueDepth = 16
		cfg.TenantInflight = 2
		p := New(cfg)
		release := make(chan struct{})
		calls := heldPasses(p, release)
		inflight := func(name string) int64 {
			if tn := p.Lookup(name); tn != nil {
				return tn.inflight.Load()
			}
			return -1
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
		submit("other")
		synctest.Wait() // other's pass holds the slot
		submit("a")
		submit("a")
		synctest.Wait() // both wait for the slot
		if a, n := inflight("a"), calls.load(); a != 2 || n != 1 {
			t.Errorf("tenant a in flight %d with %d passes running, want 2 and 1", a, n)
		}

		_, err := p.Submit(context.Background(), "a", dummyFlow())
		var bp *BackpressureError
		if !errors.As(err, &bp) || bp.Reason != "tenant-limit" {
			t.Errorf("over fair share: got %v, want tenant-limit backpressure", err)
		}
		// Tenant b has its own budget: same instant, same pipeline, admitted.
		submit("b")
		synctest.Wait()
		if b, q := inflight("b"), p.QueueDepth(); b != 1 || q != 3 {
			t.Errorf("tenant b in flight %d, queue depth %d; want 1 and 3", b, q)
		}

		close(release)
		wg.Wait()
		if err := p.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
		if a, b := inflight("a"), inflight("b"); a != 0 || b != 0 {
			t.Errorf("inflight not drained: a=%d b=%d", a, b)
		}
		if r, n := p.rejected.Load(), calls.load(); r != 1 || n != 4 {
			t.Errorf("rejected %d, passes run %d; want 1 and 4", r, n)
		}
	})
}

// TestBubbleDrainCompletesInflightAndRejectsNew: Drain begun while n
// admissions are in flight (two passes running, the rest waiting for a
// slot) rejects new submits as draining and returns only once every one of
// them has run.
func TestBubbleDrainCompletesInflightAndRejectsNew(t *testing.T) {
	synctest.Run(func() {
		cfg := testConfig()
		cfg.Workers = 2
		cfg.QueueDepth = 8
		p := New(cfg)
		release := make(chan struct{})
		calls := heldPasses(p, release)

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
		synctest.Wait()
		if f, q, c := p.inFlight.Load(), p.QueueDepth(), calls.load(); f != n || q != n-2 || c != 2 {
			t.Errorf("in flight %d, queue depth %d, passes running %d; want %d, %d and 2", f, q, c, n, n-2)
		}

		drained := make(chan error, 1)
		go func() { drained <- p.Drain(context.Background()) }()
		synctest.Wait() // Drain waits for the admissions
		select {
		case err := <-drained:
			t.Errorf("Drain returned %v with %d admissions in flight", err, n)
		default:
		}
		_, err := p.Submit(context.Background(), "t", dummyFlow())
		var bp *BackpressureError
		if !errors.As(err, &bp) || bp.Reason != "draining" {
			t.Errorf("submit during drain: got %v, want draining backpressure", err)
		}

		close(release)
		if err := <-drained; err != nil {
			t.Errorf("drain: %v", err)
		}
		wg.Wait()
		if got := calls.load(); got != n {
			t.Errorf("drain completed %d of %d in-flight admissions", got, n)
		}
		_, err = p.Submit(context.Background(), "t", dummyFlow())
		if !errors.As(err, &bp) || bp.Reason != "draining" {
			t.Errorf("submit after drain: got %v, want draining backpressure", err)
		}
	})
}

// TestBubbleWorkersBoundConcurrentExecutions: with one slot, a pass holding
// it leaves the six admissions submitted behind it waiting, exactly, and
// no two passes ever run at once.
func TestBubbleWorkersBoundConcurrentExecutions(t *testing.T) {
	synctest.Run(func() {
		cfg := testConfig()
		cfg.QueueDepth = 8
		p := New(cfg)
		release := make(chan struct{})
		var mu sync.Mutex
		running, peak := 0, 0
		p.execOverride = func(*Tenant, context.Context, *dataflow.Flow) (core.FlowResult, error) {
			mu.Lock()
			running++
			peak = max(peak, running)
			mu.Unlock()
			<-release
			// Long enough for a second pass, were one allowed, to overlap.
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
			return core.FlowResult{Makespan: 1}, nil
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
		synctest.Wait() // the first pass holds the slot
		for _, tenant := range []string{"a", "b", "c", "d", "e", "f"} {
			submit(tenant)
		}
		synctest.Wait() // all six wait for the slot
		if q := p.QueueDepth(); q != 6 {
			t.Errorf("queue depth %d behind the held slot, want 6", q)
		}

		close(release)
		wg.Wait()
		if err := p.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
		if got := p.admitted.Load(); got != 7 {
			t.Errorf("admitted %d, want 7", got)
		}
		if peak != 1 {
			t.Errorf("peak concurrent passes = %d, want 1 (Workers: 1)", peak)
		}
	})
}

// TestBubbleFleetReservePacing: with pacing on, a release holds its
// containers for exactly paceMS per billing quantum of makespan of bubble
// time, and a reserve blocked on the full fleet returns at that instant.
func TestBubbleFleetReservePacing(t *testing.T) {
	synctest.Run(func() {
		const paceMS, quantum, makespan = 5.0, 60.0, 90.0
		f := newFleet(4, paceMS, quantum, nil)
		start := time.Now()
		want := start.Add(time.Duration(paceMS * makespan / quantum * float64(time.Millisecond)))

		release := f.reserve(4) // the whole fleet
		reserved := make(chan time.Time, 1)
		go func() {
			f.reserve(1)(0) // a zero makespan releases at once
			reserved <- time.Now()
		}()
		synctest.Wait() // the second reserve waits for capacity
		if st := f.stats(); st.InUse != 4 || st.Reserves != 1 {
			t.Errorf("blocked reserve: %d in use after %d reserves, want 4 after 1", st.InUse, st.Reserves)
		}

		released := make(chan time.Time, 1)
		go func() {
			release(makespan)
			released <- time.Now()
		}()
		if at := <-released; !at.Equal(want) {
			t.Errorf("release returned after %v, want %v", at.Sub(start), want.Sub(start))
		}
		if at := <-reserved; !at.Equal(want) {
			t.Errorf("blocked reserve returned after %v, want %v", at.Sub(start), want.Sub(start))
		}
		if st := f.stats(); st.InUse != 0 || st.Peak != 4 || st.Reserves != 2 || st.Releases != 2 {
			t.Errorf("fleet after both releases: %+v, want 0 in use, peak 4, 2 reserves and 2 releases", st)
		}
	})
}
