package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"idxflow/internal/flowlang"
	"idxflow/internal/qaas"
	"idxflow/internal/workload"
)

// TestClosedLoopRetriesAfter429: against a server that answers its first
// request 429 with Retry-After: 1 and every later one 200, the closed loop
// sleeps the second, resubmits the same body and counts one retry, counts
// every admitted flow, and takes a latency sample for the 200s only.
func TestClosedLoopRetriesAfter429(t *testing.T) {
	var (
		mu      sync.Mutex
		bodies  []string
		tenants []string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		bodies = append(bodies, string(b))
		tenants = append(tenants, r.URL.Query().Get("tenant"))
		first := len(bodies) == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	lg := newLoadgen(srv.Client(), srv.URL)
	start := time.Now()
	lg.closedLoop([]string{"flow-0", "flow-1"}, []string{"tenant-00", "tenant-01"}, 1)
	if wait := time.Since(start); wait < time.Second {
		t.Errorf("the loop took %v, less than the 1 s Retry-After", wait)
	}

	if want := []string{"flow-0", "flow-0", "flow-1"}; !reflect.DeepEqual(bodies, want) {
		t.Errorf("server received %q, want %q (the refused flow resubmitted)", bodies, want)
	}
	if want := []string{"tenant-00", "tenant-00", "tenant-01"}; !reflect.DeepEqual(tenants, want) {
		t.Errorf("server received tenants %q, want %q", tenants, want)
	}
	if got := lg.retries.Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if got := lg.admitted.Load(); got != 2 {
		t.Errorf("admitted = %d, want 2", got)
	}
	if got := lg.hist.Count(); got != 2 {
		t.Errorf("%d latency samples, want 2 (one per 200, none for the 429)", got)
	}
	if got := lg.errors.Load(); got != 0 {
		t.Errorf("errors = %d, want 0", got)
	}
}

// TestGenerateSpreadsFlowsOverTenants: flow i goes to tenant i % n, and
// every partition its body reads is one of that tenant's database, the one
// the server instantiates for it from qaas.TenantSeed.
func TestGenerateSpreadsFlowsOverTenants(t *testing.T) {
	const seed, tenants, n = 7, 3, 12
	bodies, tenantOf := generate(seed, tenants, n)
	if len(bodies) != n || len(tenantOf) != n {
		t.Fatalf("generate returned %d bodies and %d tenants, want %d", len(bodies), len(tenantOf), n)
	}
	partitions := map[string]map[string]bool{}
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		db, err := workload.NewFileDB(qaas.TenantSeed(seed, name))
		if err != nil {
			t.Fatal(err)
		}
		paths := map[string]bool{}
		for _, f := range db.Files {
			for _, p := range f.Table.Partitions {
				paths[p.Path] = true
			}
		}
		partitions[name] = paths
	}

	foreign := 0 // inputs some other tenant's database does not hold
	for i, body := range bodies {
		want := fmt.Sprintf("tenant-%02d", i%tenants)
		if tenantOf[i] != want {
			t.Errorf("flow %d goes to %s, want %s", i, tenantOf[i], want)
			continue
		}
		flow, err := flowlang.ParseString(body)
		if err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
		if len(flow.Inputs) == 0 {
			t.Errorf("flow %d reads no partition", i)
		}
		for _, in := range flow.Inputs {
			if !partitions[want][in] {
				t.Errorf("flow %d reads %s, which %s's database does not hold", i, in, want)
			}
			for name, paths := range partitions {
				if name != want && !paths[in] {
					foreign++
				}
			}
		}
	}
	// Tenants' databases differ in their files' sizes, so partition
	// counts differ; a flow read against the wrong one would show here.
	if foreign == 0 {
		t.Error("every input is in every tenant's database; the check cannot tell the tenants apart")
	}
}
