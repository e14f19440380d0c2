package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "concurrent increments")
	vec := r.CounterVec("test_labeled_total", "labeled concurrent increments", "worker")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := vec.With(string(rune('a' + w)))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				lbl.Add(0.5)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %g, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := vec.With(string(rune('a' + w))).Value(); got != perWorker/2 {
			t.Errorf("labeled counter %d = %g, want %d", w, got, perWorker/2)
		}
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("neg_total", "")
	c.Add(3)
	c.Add(-5)
	c.Add(math.NaN())
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %g, want 3 (negative/NaN adds ignored)", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth", "")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %g, want 7", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{1, 2, 4})
	// A value exactly on an upper bound belongs to that bucket (le is
	// "less than or equal"), values above every bound go to +Inf.
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 4.0001, 100} {
		h.Observe(v)
	}
	uppers, cum := h.Buckets()
	wantUppers := []float64{1, 2, 4, math.Inf(1)}
	wantCum := []uint64{2, 4, 5, 7}
	if len(uppers) != len(wantUppers) {
		t.Fatalf("uppers = %v", uppers)
	}
	for i := range uppers {
		if uppers[i] != wantUppers[i] {
			t.Errorf("upper[%d] = %g, want %g", i, uppers[i], wantUppers[i])
		}
		if cum[i] != wantCum[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], wantCum[i])
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if want := 0.5 + 1 + 1.5 + 2 + 4 + 4.0001 + 100; math.Abs(h.Sum()-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", h.Sum(), want)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", "", ExponentialBuckets(0.001, 2, 10))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i%7) * 0.01)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestGetOrCreateReturnsSameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "x")
	b := r.Counter("same_total", "x")
	if a != b {
		t.Error("same name returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("handles do not share state")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("clash_total", "")
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", nil)
	var tr *Tracer // off
	sp := tr.StartSpan("noop", 1)
	if sp != nil {
		t.Error("nil tracer returned a live span")
	}
	// None of these may panic.
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(-1)
	h.Observe(3)
	sp.StartSpan("child").End()
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || len(tr.Events()) != 0 {
		t.Error("nil handles reported non-zero values")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
}

func TestLabelValuesDoNotCollide(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("pair_total", "", "a", "b")
	vec.With("x", "yz").Inc()
	vec.With("xy", "z").Inc()
	if got := vec.With("x", "yz").Value(); got != 1 {
		t.Errorf(`("x","yz") = %g, want 1`, got)
	}
	if got := vec.With("xy", "z").Value(); got != 1 {
		t.Errorf(`("xy","z") = %g, want 1`, got)
	}
}
