package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed amount per reading so span durations are
// deterministic.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func newFakeTracer(step time.Duration) *Tracer {
	c := &fakeClock{t: time.Unix(1000, 0), step: step}
	tr := &Tracer{now: c.now}
	tr.epoch = c.t
	return tr
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := newFakeTracer(time.Millisecond)
	outer := tr.StartSpan("service.submit", 7)
	inner := outer.StartSpan("sched.skyline")
	inner.End()
	outer.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	events := trace.TraceEvents
	if trace.DisplayTimeUnit != "ms" || len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	// Completion order: inner first.
	in, out := events[0], events[1]
	if in.Name != "sched.skyline" || out.Name != "service.submit" {
		t.Fatalf("names = %q, %q", in.Name, out.Name)
	}
	if in.Phase != "X" || out.Phase != "X" {
		t.Errorf("phases = %q, %q, want X", in.Phase, out.Phase)
	}
	// Nesting: the inner span's [ts, ts+dur] lies inside the outer's.
	if in.TS < out.TS || in.TS+in.Dur > out.TS+out.Dur {
		t.Errorf("inner span [%g,%g] not inside outer [%g,%g]",
			in.TS, in.TS+in.Dur, out.TS, out.TS+out.Dur)
	}
	if want := (Args{ID: 0, Parent: -1, FlowID: 7}); out.Args != want || out.TID != 1 {
		t.Errorf("outer args = %+v on tid %d, want %+v on tid 1", out.Args, out.TID, want)
	}
	if want := (Args{ID: 1, Parent: 0, FlowID: 7}); in.Args != want || in.TID != 1 {
		t.Errorf("inner args = %+v on tid %d, want %+v on tid 1", in.Args, in.TID, want)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"args":{"id":0,"parent":-1,"flow_id":7}`)) {
		t.Errorf("root args not rendered as {id, parent, flow_id}:\n%s", buf.Bytes())
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	var tr *Tracer // off
	sp := tr.StartSpan("x", 1)
	if sp != nil {
		t.Error("disabled tracer returned a live span")
	}
	if child := sp.StartSpan("y"); child != nil {
		t.Error("nil span returned a live child")
	}
	sp.End()
	if len(tr.Events()) != 0 {
		t.Errorf("events = %d, want 0", len(tr.Events()))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		root := tr.StartSpan("x", 1)
		root.StartSpan("y").End()
		root.End()
	}); allocs != 0 {
		t.Errorf("a nil tracer allocated %v times per pass", allocs)
	}
	tr = NewTracer()
	tr.StartSpan("y", 1).End()
	if len(tr.Events()) != 1 {
		t.Errorf("events after enable = %d, want 1", len(tr.Events()))
	}
}

func TestEndTwiceIsNoOp(t *testing.T) {
	tr := newFakeTracer(time.Millisecond)
	sp := tr.StartSpan("once", 1)
	sp.End()
	sp.End()
	if len(tr.Events()) != 1 {
		t.Errorf("events = %d, want 1", len(tr.Events()))
	}
	// The first End freed lane 1; the second did not free it again.
	a, b := tr.StartSpan("a", 2), tr.StartSpan("b", 3)
	if a.lane != 1 || b.lane != 2 {
		t.Errorf("lanes after a double End = %d, %d, want 1, 2", a.lane, b.lane)
	}
}

// TestRootsTakeTheLowestFreeLane: concurrent roots get a lane each, a child
// shares its root's lane and flow, and a root opened after others ended
// takes the lowest lane free again.
func TestRootsTakeTheLowestFreeLane(t *testing.T) {
	tr := newFakeTracer(time.Millisecond)
	var wg sync.WaitGroup
	roots := make([]*Span, 8)
	for w := range roots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			roots[w] = tr.StartSpan("root", uint64(w))
		}()
	}
	wg.Wait()
	lanes := map[int]bool{}
	for _, r := range roots {
		lanes[r.lane] = true
		r.StartSpan("child").End()
	}
	if len(lanes) != len(roots) || lanes[0] || lanes[len(roots)+1] {
		t.Fatalf("8 open roots hold lanes %v, want 1..8", lanes)
	}
	roots[5].End()
	roots[2].End()
	if got, want := tr.StartSpan("next", 99).lane, min(roots[5].lane, roots[2].lane); got != want {
		t.Errorf("new root on lane %d, want the lowest free %d", got, want)
	}
	for _, e := range tr.Events() {
		if e.Name != "child" {
			continue
		}
		r := roots[e.Args.FlowID]
		if e.Args.Parent != r.args.ID || e.TID != r.lane {
			t.Errorf("child %+v on tid %d, want parent %d on tid %d", e.Args, e.TID, r.args.ID, r.lane)
		}
	}
}
