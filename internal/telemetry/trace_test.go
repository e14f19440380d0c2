package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	tr := &Tracer{enabled: true, now: c.now}
	tr.epoch = c.t
	return tr
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := newFakeTracer(time.Millisecond)
	outer := tr.StartSpan("service.submit").SetAttr("flow", "f1")
	inner := tr.StartSpan("sched.skyline").SetAttr("ops", 12)
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
	if out.Args["flow"] != "f1" {
		t.Errorf("outer args = %v", out.Args)
	}
	if in.Args["ops"] != float64(12) { // JSON numbers decode as float64
		t.Errorf("inner args = %v", in.Args)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := &Tracer{now: time.Now}
	sp := tr.StartSpan("x")
	if sp != nil {
		t.Error("disabled tracer returned a live span")
	}
	sp.SetAttr("k", 1)
	sp.End()
	if tr.Len() != 0 {
		t.Errorf("events = %d, want 0", tr.Len())
	}
	tr.SetEnabled(true)
	tr.StartSpan("y").End()
	if tr.Len() != 1 {
		t.Errorf("events after enable = %d, want 1", tr.Len())
	}
}

func TestEndTwiceIsNoOp(t *testing.T) {
	tr := newFakeTracer(time.Millisecond)
	sp := tr.StartSpan("once")
	sp.End()
	sp.End()
	if tr.Len() != 1 {
		t.Errorf("events = %d, want 1", tr.Len())
	}
}

func TestTracerReset(t *testing.T) {
	tr := newFakeTracer(time.Millisecond)
	tr.StartSpan("a").End()
	tr.Reset()
	if tr.Len() != 0 {
		t.Errorf("events after reset = %d", tr.Len())
	}
}

func TestSpanConcurrentSetAttr(t *testing.T) {
	tr := NewTracer()
	sp := tr.StartSpan("parallel")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp.SetAttr(fmt.Sprintf("k%d", w), i)
			}
		}()
	}
	wg.Wait()
	sp.End()
	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	if len(events[0].Args) != 8 {
		t.Errorf("args = %d, want 8", len(events[0].Args))
	}
}

func TestSpanSetAttrAfterEndIsNoOp(t *testing.T) {
	tr := NewTracer()
	sp := tr.StartSpan("late")
	sp.SetAttr("early", 1)
	sp.End()
	sp.SetAttr("late", 2) // must not race with the recorded event's Args
	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	if _, ok := events[0].Args["late"]; ok {
		t.Error("attribute set after End leaked into the recorded event")
	}
}
