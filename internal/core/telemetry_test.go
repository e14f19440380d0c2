package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idxflow/internal/dataflow"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// makeFlows generates a deterministic batch of montage flows.
func makeFlows(db *workload.FileDB, n int) []*dataflow.Flow {
	gen := workload.NewGenerator(db, 2)
	flows := make([]*dataflow.Flow, n)
	for i := range flows {
		flows[i] = gen.Flow(workload.Montage, i, 0)
	}
	return flows
}

// TestRunRepeatedCallsIdempotent is the regression test for the aggregate
// derivation: feeding the same flows in one Run call or split across two
// must yield identical derived metrics, and a further empty Run must not
// change them (the old code kept a running makespan sum in the same field
// as the derived mean, which double-divides if derivation ever touched the
// stored value).
func TestRunRepeatedCallsIdempotent(t *testing.T) {
	const horizon = 1e9
	cfg := quickConfig(Gain)
	cfg.Telemetry = telemetry.NewRegistry()

	dbA := testDB(t)
	oneShot := NewService(cfg, dbA).Run(makeFlows(dbA, 6), horizon)

	cfgB := quickConfig(Gain)
	cfgB.Telemetry = telemetry.NewRegistry()
	dbB := testDB(t)
	svc := NewService(cfgB, dbB)
	flows := makeFlows(dbB, 6)
	svc.Run(flows[:3], horizon)
	split := svc.Run(flows[3:], horizon)

	if oneShot.FlowsFinished != split.FlowsFinished {
		t.Fatalf("FlowsFinished: one-shot %d, split %d", oneShot.FlowsFinished, split.FlowsFinished)
	}
	if math.Abs(oneShot.MeanMakespan-split.MeanMakespan) > 1e-9 {
		t.Errorf("MeanMakespan: one-shot %g, split %g", oneShot.MeanMakespan, split.MeanMakespan)
	}
	if math.Abs(oneShot.VMQuanta-split.VMQuanta) > 1e-9 {
		t.Errorf("VMQuanta: one-shot %g, split %g", oneShot.VMQuanta, split.VMQuanta)
	}
	// CostPerFlow's storage term accrues to the horizon on each call, so it
	// is compared for internal consistency rather than across call splits.
	wantCPF := (split.VMCost + split.StorageCost) / float64(split.FlowsFinished)
	if math.Abs(split.CostPerFlow-wantCPF) > 1e-9 {
		t.Errorf("CostPerFlow = %g, want (VM+storage)/finished = %g", split.CostPerFlow, wantCPF)
	}

	// A Run with no flows must leave every derived aggregate untouched.
	again := svc.Run(nil, horizon)
	if again.MeanMakespan != split.MeanMakespan || again.CostPerFlow != split.CostPerFlow ||
		again.FlowsFinished != split.FlowsFinished {
		t.Errorf("empty Run changed aggregates: %+v vs %+v", again, split)
	}
}

// TestServiceMetricsExposition submits flows against an injected registry
// and checks that the required metric families are present and moving in
// the Prometheus exposition.
func TestServiceMetricsExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := quickConfig(Gain)
	cfg.Telemetry = reg
	db := testDB(t)
	svc := NewService(cfg, db)
	gen := workload.NewGenerator(db, 2)
	for i := 0; i < 4; i++ {
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE idxflow_flow_makespan_seconds histogram",
		"idxflow_flow_makespan_seconds_count 4",
		"idxflow_idle_slot_seconds_total",
		"idxflow_skyline_iterations_total",
		"idxflow_flow_quanta_sum",
		"idxflow_index_estimated_gain_count",
		"idxflow_storage_cost_dollars_total",
		"idxflow_gain_candidates_evaluated_total",
		// Fault families are pre-registered so a scrape sees them even on
		// a fault-free service.
		"# TYPE idxflow_faults_injected_total counter",
		"# TYPE idxflow_recoveries_total counter",
		"# TYPE idxflow_wasted_quanta_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if v := reg.Counter("idxflow_flows_submitted_total", "").Value(); v != 4 {
		t.Errorf("flows_submitted = %g, want 4", v)
	}
	if v := reg.Counter("idxflow_idle_slot_seconds_total", "").Value(); v <= 0 {
		t.Errorf("idle_slot_seconds = %g, want > 0", v)
	}
	if v := reg.Counter("idxflow_index_partitions_built_total", "").Value(); v <= 0 {
		t.Errorf("partitions_built = %g, want > 0 (gain strategy should build)", v)
	}
}

// TestServiceTraceRoundTrip drives a traced submission, exports the Chrome
// trace, parses it back and checks the executor and skyline spans nest
// inside the submit span on its lane — the shape chrome://tracing renders
// as a hierarchy — and that their args name their parents and the flow.
func TestServiceTraceRoundTrip(t *testing.T) {
	cfg := quickConfig(Gain)
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer()
	db := testDB(t)
	svc := NewService(cfg, db)
	gen := workload.NewGenerator(db, 2)
	svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, 0, 0))

	var buf bytes.Buffer
	if err := cfg.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []telemetry.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	events := trace.TraceEvents
	find := func(name string) *telemetry.Event {
		for i := range events {
			if events[i].Name == name {
				return &events[i]
			}
		}
		return nil
	}
	submit := find("service.submit")
	execute := find("sim.execute")
	skyline := find("sched.skyline")
	lp := find("interleave.lp")
	if submit == nil || execute == nil || skyline == nil || lp == nil {
		t.Fatalf("missing spans (submit=%v execute=%v skyline=%v lp=%v) in %d events",
			submit != nil, execute != nil, skyline != nil, lp != nil, len(events))
	}
	for _, inner := range []*telemetry.Event{execute, skyline} {
		if inner.TS < submit.TS || inner.TS+inner.Dur > submit.TS+submit.Dur || inner.TID != submit.TID {
			t.Errorf("span %q [%g, %g] on tid %d not nested in service.submit [%g, %g] on tid %d",
				inner.Name, inner.TS, inner.TS+inner.Dur, inner.TID, submit.TS, submit.TS+submit.Dur, submit.TID)
		}
	}
	if submit.Args.Parent != -1 || submit.Args.FlowID != 1 {
		t.Errorf("service.submit args %+v, want a root of flow 1", submit.Args)
	}
	for inner, parent := range map[*telemetry.Event]*telemetry.Event{execute: submit, lp: submit, skyline: lp} {
		if inner.Args.Parent != parent.Args.ID || inner.Args.FlowID != 1 {
			t.Errorf("%s args %+v, want parent %s (%d) of flow 1", inner.Name, inner.Args, parent.Name, parent.Args.ID)
		}
	}
	if submit.Phase != "X" || submit.PID != 1 || submit.TID != 1 {
		t.Errorf("unexpected event shape: %+v", submit)
	}
}

// TestConcurrentPassesTraceOnTheirOwnLanes: two services share one tracer,
// the way a server's tenants do, and a Reserve barrier holds both passes in
// execute until the other has arrived, so both are in flight at once. Read
// back from the written Chrome trace, every span names its id, parent and
// flow; the two roots are on different lanes; every other span sits on its
// parent's lane inside its parent's interval and times its root's flow; and
// a third pass, run after both ended, is back on lane 1.
func TestConcurrentPassesTraceOnTheirOwnLanes(t *testing.T) {
	tracer := telemetry.NewTracer()
	both := make(chan struct{})
	var arrived atomic.Int32
	barrier := func(int) func(float64) {
		switch arrived.Add(1) {
		case 1:
			select {
			case <-both:
			case <-time.After(30 * time.Second):
				t.Error("the second pass never reached execute")
			}
		case 2:
			close(both)
		}
		return func(float64) {}
	}
	var svcs [2]*Service
	var gens [2]*workload.Generator
	for i := range svcs {
		cfg := quickConfig(Gain)
		cfg.Tracer = tracer
		cfg.Reserve = barrier
		db := testDB(t)
		svcs[i], gens[i] = NewService(cfg, db), workload.NewGenerator(db, 2)
	}
	var wg sync.WaitGroup
	for i := range svcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			svcs[i].SubmitCtx(context.Background(), gens[i].Flow(workload.Montage, i, 0))
		}()
	}
	wg.Wait()
	if res := svcs[0].SubmitCtx(context.Background(), gens[0].Flow(workload.Ligo, 2, svcs[0].Clock())); res.FlowID != 2 {
		t.Fatalf("third submit got flow id %d, want 2", res.FlowID)
	}

	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	type span struct {
		Name    string
		TS, Dur float64
		TID     int
		Args    struct {
			ID     *int    `json:"id"`
			Parent *int    `json:"parent"`
			FlowID *uint64 `json:"flow_id"`
		}
	}
	var trace struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	for _, sp := range trace.TraceEvents {
		if sp.Args.ID == nil || sp.Args.Parent == nil || sp.Args.FlowID == nil {
			t.Fatalf("span %s lacks id, parent or flow_id: %+v", sp.Name, sp.Args)
		}
		byID[*sp.Args.ID] = sp
	}
	root := func(sp span) span {
		for *sp.Args.Parent != -1 {
			sp = byID[*sp.Args.Parent]
		}
		return sp
	}
	var roots []span
	for _, sp := range trace.TraceEvents {
		if *sp.Args.Parent == -1 {
			roots = append(roots, sp)
			continue
		}
		parent, ok := byID[*sp.Args.Parent]
		if !ok || parent.TID != sp.TID || sp.TS < parent.TS || sp.TS+sp.Dur > parent.TS+parent.Dur {
			t.Errorf("%s [%g, %g] on tid %d is not inside its parent %s [%g, %g] on tid %d",
				sp.Name, sp.TS, sp.TS+sp.Dur, sp.TID, parent.Name, parent.TS, parent.TS+parent.Dur, parent.TID)
		}
		if r := root(sp); *sp.Args.FlowID != *r.Args.FlowID {
			t.Errorf("%s has flow_id %d under the root of flow %d", sp.Name, *sp.Args.FlowID, *r.Args.FlowID)
		}
	}
	if len(roots) != 3 {
		t.Fatalf("%d root spans, want 3", len(roots))
	}
	a, b, third := roots[0], roots[1], roots[2]
	if a.TID == b.TID || *a.Args.FlowID != 1 || *b.Args.FlowID != 1 {
		t.Errorf("concurrent roots on tids %d and %d with flows %d and %d, want two lanes of flow 1",
			a.TID, b.TID, *a.Args.FlowID, *b.Args.FlowID)
	}
	if a.TS+a.Dur < b.TS || b.TS+b.Dur < a.TS {
		t.Error("the barrier did not hold both passes in flight at once")
	}
	if third.TID != 1 || *third.Args.FlowID != 2 {
		t.Errorf("third root on tid %d with flow %d, want tid 1 and flow 2", third.TID, *third.Args.FlowID)
	}
}

// scrape returns reg's Prometheus exposition.
func scrape(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// seriesSum sums the values of every series of name in an exposition,
// whatever its labels.
func seriesSum(t *testing.T, text, name string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("series line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestCancelledSubmitLeavesScrape: a submit cancelled as its execution
// starts publishes nothing past that point. Reserve runs just before
// Execute, so the scrape it takes is what the cancelled run must leave.
// Under heavyFaultPlan the first Montage flow is the one that loses a
// container, so the run that never happens had kills and faults to count.
func TestCancelledSubmitLeavesScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	before := ""
	cfg := quickConfig(Gain)
	cfg.Telemetry = reg
	cfg.Faults = heavyFaultPlan()
	cfg.Reserve = func(int) func(float64) {
		before = scrape(t, reg)
		cancel()
		return func(float64) {}
	}
	db := testDB(t)
	svc := NewService(cfg, db)
	if res := svc.SubmitCtx(ctx, workload.NewGenerator(db, 2).Flow(workload.Montage, 0, 0)); !res.Cancelled {
		t.Fatal("the Reserve hook cancelled the ctx but the submit completed")
	}
	if before == "" {
		t.Fatal("Reserve never ran")
	}
	if after := scrape(t, reg); after != before {
		t.Errorf("the cancelled run moved the scrape:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestWarmHitCountsNoSearch: a repeat of one flow under NoIndex is the same
// scheduling problem, so the skyline replays its memo: the warm-hit counter
// moves by one and the search-effort families not at all.
func TestWarmHitCountsNoSearch(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := quickConfig(NoIndex)
	cfg.Telemetry = reg
	db := testDB(t)
	svc := NewService(cfg, db)
	flow := workload.NewGenerator(db, 2).Flow(workload.Montage, 0, 0)
	svc.SubmitCtx(context.Background(), flow)
	first := scrape(t, reg)
	if seriesSum(t, first, "idxflow_skyline_iterations_total") == 0 {
		t.Fatal("the cold run counted no skyline iteration")
	}
	svc.SubmitCtx(context.Background(), flow)
	second := scrape(t, reg)
	for name, want := range map[string]float64{
		"idxflow_sched_warm_hits_total":       1,
		"idxflow_skyline_iterations_total":    0,
		"idxflow_skyline_candidates_total":    0,
		"idxflow_skyline_frontier_size_count": 0,
		"idxflow_skyline_frontier_size_sum":   0,
	} {
		if got := seriesSum(t, second, name) - seriesSum(t, first, name); got != want {
			t.Errorf("%s moved by %g on the repeat, want %g", name, got, want)
		}
	}
}

// TestExecutorFamiliesMatchAggregates: after a run under heavy faults, each
// executor family, and the quanta charged (flow_quanta's sum), equals the
// service aggregate it mirrors, both read off the same Results.
func TestExecutorFamiliesMatchAggregates(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, m := runFaulty(t, 8, nil, reg)
	if m.FaultsInjected == 0 || m.KilledOps == 0 {
		t.Fatalf("the heavy fault plan injected %d faults and killed %d builds; the check needs both",
			m.FaultsInjected, m.KilledOps)
	}
	text := scrape(t, reg)
	for _, c := range []struct {
		series string
		want   float64
	}{
		{"idxflow_builds_killed_total", float64(m.KilledOps)},
		{"idxflow_flow_quanta_sum", m.VMQuanta},
		{"idxflow_wasted_quanta_total", m.WastedQuanta},
		{"idxflow_faults_injected_total", float64(m.FaultsInjected)},
		{"idxflow_recoveries_total", float64(m.FaultsRecovered)},
		{"idxflow_op_run_seconds_count", float64(m.TotalOps)},
	} {
		if got := seriesSum(t, text, c.series); math.Abs(got-c.want) > 1e-9*math.Max(1, c.want) {
			t.Errorf("%s = %g, want %g", c.series, got, c.want)
		}
	}
}
