package qaas_test

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"idxflow/internal/check"
	"idxflow/internal/core"
	"idxflow/internal/dataflow"
	"idxflow/internal/flowlang"
	"idxflow/internal/provenance"
	"idxflow/internal/qaas"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// soloPipeline is one slot serving tenant "solo" with the stock tuner
// configuration; flow(i) is that tenant's i-th distinct dataflow, parsed
// from its flowlang text as the server parses a request body, so that what a
// tenant retains of a flow includes what the parser's strings keep alive.
func soloPipeline(t *testing.T, provCap int) (p *qaas.Pipeline, flow func(i int) *dataflow.Flow) {
	t.Helper()
	cc := core.DefaultConfig()
	cc.Telemetry = telemetry.NewRegistry()
	p = qaas.New(qaas.Config{
		Core: cc, Seed: 1, Workers: 1, FleetContainers: cc.Sched.MaxContainers,
		ProvenanceCapacity: provCap,
	})
	seed := qaas.TenantSeed(1, "solo")
	db, err := workload.NewFileDB(seed)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(db, seed)
	return p, func(i int) *dataflow.Flow {
		f, err := flowlang.ParseString(flowlang.Marshal(gen.Flow(workload.Apps[i%len(workload.Apps)], i, 0)))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
}

func submitSolo(t *testing.T, p *qaas.Pipeline, flow *dataflow.Flow) {
	t.Helper()
	if _, err := p.Submit(context.Background(), "solo", flow); err != nil {
		t.Fatal(err)
	}
}

// TestSummaryLeavesTheEventLogAlone: the /v1/qaas poll costs the same
// whatever the tenants' rings hold, serves the bytes the full report would,
// and the full report still carries what the auditor needs.
func TestSummaryLeavesTheEventLogAlone(t *testing.T) {
	p, flow := soloPipeline(t, 1<<17)
	tenant, err := p.Tenant("solo")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; tenant.Recorder().Len() < 50000; i++ {
		submitSolo(t, p, flow(i))
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sum := p.Summary()
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("Summary allocated %d bytes with %d events held, want < 64 kB", n, tenant.Recorder().Len())
	}

	full := p.Report()
	tr := full.Tenants[0]
	if sum.Tenants[0].Events != nil || len(tr.Events) != tenant.Recorder().Len() {
		t.Fatalf("Summary carries %d events, Report %d of %d held",
			len(sum.Tenants[0].Events), len(tr.Events), tenant.Recorder().Len())
	}
	if tr.ProvenanceEvents != len(tr.Events) || tr.ProvenanceCapacity != 1<<17 || tr.ProvenanceDropped != 0 {
		t.Errorf("provenance events/capacity/dropped = %d/%d/%d, want %d/%d/0",
			tr.ProvenanceEvents, tr.ProvenanceCapacity, tr.ProvenanceDropped, len(tr.Events), 1<<17)
	}
	if err := check.AuditQaaS(full); err != nil {
		t.Errorf("AuditQaaS on the full report: %v", err)
	}
	a, _ := json.Marshal(sum)
	b, _ := json.Marshal(full)
	if string(a) != string(b) {
		t.Errorf("Summary and Report serve different JSON:\n%s\n%s", a, b)
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTenantHeapDoesNotGrowWithFlowsSeen is the ROADMAP item 8 soak: one
// tenant whose ring wraps early, every flow a fresh DAG. Once the ring is
// full, what a flow leaves behind is its FlowResult and Timeline point
// (about 0.6 kB), not its parsed graph (44 kB), not its 15 kB body through
// a substring the parser handed out, and not more ring. The bound is 1.5 kB:
// a parser whose IndexUse.Index aliased the body read 2,041 bytes here.
func TestTenantHeapDoesNotGrowWithFlowsSeen(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: 1,000 full-size submissions")
	}
	const flows = 100
	p, flow := soloPipeline(t, 8192)
	for i := 0; i < flows; i++ {
		submitSolo(t, p, flow(i))
	}
	tenant, err := p.Tenant("solo")
	if err != nil {
		t.Fatal(err)
	}
	if tenant.Recorder().Dropped() == 0 {
		t.Fatalf("the ring has not wrapped after %d flows; the soak needs it full", flows)
	}
	base := liveHeap()
	for i := flows; i < 10*flows; i++ {
		submitSolo(t, p, flow(i))
	}
	grown := int64(liveHeap()) - int64(base)
	perFlow := grown / (9 * flows)
	t.Logf("live heap %d → %d bytes over %d more flows: %d bytes per flow", base, int64(base)+grown, 9*flows, perFlow)
	if perFlow > 1536 {
		t.Errorf("a tenant retains %d bytes per flow it has seen, want ≤ 1.5 kB", perFlow)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmittedGraphIsCollectable: nothing the service keeps per flow may
// reach the submitted *dataflow.Flow. Only the warm scheduler's memo holds
// a graph, the latest one, so two later distinct submissions release the
// first.
func TestSubmittedGraphIsCollectable(t *testing.T) {
	p, flow := soloPipeline(t, 8192)
	// Without this the pipeline itself is garbage after its last use below,
	// and the flow goes with it whatever the tenant holds.
	defer runtime.KeepAlive(p)
	collected := make(chan struct{})
	// In a function of its own so that no slot of this test's frame keeps
	// the watched flow reachable.
	func() {
		first := flow(0)
		runtime.SetFinalizer(first, func(*dataflow.Flow) { close(collected) })
		submitSolo(t, p, first)
	}()
	submitSolo(t, p, flow(1))
	submitSolo(t, p, flow(2))
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("the first submitted flow is still reachable after two later submissions and a GC")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// heldForProfile keeps TestServeUniqueShapeLiveHeap's pipeline reachable
// until the test binary exits, so that -memprofile's in-use view (written
// after a final GC) still shows what the tenants hold.
var heldForProfile *qaas.Pipeline

// TestServeUniqueShapeLiveHeap reproduces the live-heap split DESIGN §10
// quotes: the benchmark's serve_unique shape (4 tenants × 525 fresh DAGs,
// each parsed from its flowlang text as the server parses a request body)
// at the server's default -prov-cap. It logs what is held and bounds the
// total; for the split by allocation site run
//
//	go test ./internal/qaas -run TestServeUniqueShapeLiveHeap -v \
//	    -memprofile /root/scratch/mem.prof -memprofilerate 4096
//	go tool pprof -sample_index=inuse_space -top /root/scratch/mem.prof
func TestServeUniqueShapeLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("2,100 full-size submissions")
	}
	const tenants, flows, provCap = 4, 525, 262144
	base := liveHeap()
	cc := core.DefaultConfig()
	cc.Telemetry = telemetry.NewRegistry()
	p := qaas.New(qaas.Config{
		Core: cc, Seed: 1, Workers: tenants, FleetContainers: tenants * cc.Sched.MaxContainers,
		ProvenanceCapacity: provCap,
	})
	heldForProfile = p
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%d", i)
		seed := qaas.TenantSeed(1, name)
		db, err := workload.NewFileDB(seed)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(db, seed)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq < flows; seq++ {
				body := flowlang.Marshal(gen.Flow(workload.Apps[seq%len(workload.Apps)], seq, 0))
				flow, err := flowlang.ParseString(body)
				if err == nil {
					_, err = p.Submit(context.Background(), name, flow)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	live := int64(liveHeap()) - int64(base)

	var events int
	for _, tn := range p.Tenants() {
		events += tn.Recorder().Len()
	}
	eventBytes := int64(events) * int64(unsafe.Sizeof(provenance.Event{}))
	const mb = 1 << 20 // as pprof prints it
	t.Logf("live heap %.1f MB: %d events held = %.1f MB of ring slots in use (rings preallocated to capacity: %.1f MB); %d flow results",
		float64(live)/mb, events, float64(eventBytes)/mb,
		float64(tenants*provCap)*float64(unsafe.Sizeof(provenance.Event{}))/mb, tenants*flows)
	if live > 160*mb {
		t.Errorf("4 tenants × 525 flows hold %d bytes live, want < 160 MB (341 MB before rings grew by chunk and results dropped the graph)", live)
	}
}
