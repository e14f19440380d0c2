// Package telemetry is the observability substrate of idxflow: a
// thread-safe metrics registry (counters, gauges, fixed-bucket histograms,
// with optional labels) that renders the Prometheus text exposition format,
// and a lightweight tracer whose spans carry their time, flow, parent and
// lane and are exported as Chrome trace-event JSON (chrome://tracing /
// Perfetto compatible).
//
// Everything is stdlib-only and allocation-light: metric handles are
// created once (get-or-create by name) and then updated lock-free
// (counters/gauges) or under a small per-histogram mutex. All handle
// methods are nil-receiver safe, so instrumented code never needs to
// branch on "is telemetry configured": a nil *Counter, *Gauge, *Histogram,
// *Tracer or *Span is a no-op.
//
// There is no package-level registry or tracer: each binary creates the
// handles it uses and passes them down, and a nil handle means off.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Gauge is a value that can go up and down. The zero value is ready to
// use; a nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v (which may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Counter is a monotonically non-decreasing value: a Gauge that takes only
// positive deltas. The zero value is ready to use; a nil Counter is a
// no-op.
type Counter Gauge

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative or NaN deltas are ignored (a
// counter never goes down).
func (c *Counter) Add(v float64) {
	if v > 0 {
		(*Gauge)(c).Add(v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return (*Gauge)(c).Value() }

// Histogram counts observations into fixed buckets (cumulative on export,
// like Prometheus). A nil Histogram is a no-op.
type Histogram struct {
	mu     sync.Mutex
	uppers []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []uint64  // len(uppers)+1, non-cumulative per bucket
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation within the bucket that spans the
// target rank — the same estimate Prometheus's histogram_quantile gives.
// The first finite bucket interpolates from a lower bound of 0; ranks that
// land in the +Inf bucket clamp to the last finite upper bound (there is
// no width to interpolate across). Returns NaN when the histogram is nil,
// empty, or q is out of range.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return math.NaN()
	}
	rank := q * float64(h.count)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.uppers) { // +Inf bucket
			if len(h.uppers) == 0 {
				return math.NaN()
			}
			return h.uppers[len(h.uppers)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.uppers[i-1]
		}
		if c == 0 {
			return h.uppers[i]
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lower + (h.uppers[i]-lower)*frac
	}
	return h.uppers[len(h.uppers)-1]
}

// Buckets returns the upper bounds and the cumulative count at each bound,
// ending with the +Inf bucket (whose cumulative count equals Count()).
func (h *Histogram) Buckets() (uppers []float64, cumulative []uint64) {
	if h == nil {
		return nil, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	uppers = append([]float64(nil), h.uppers...)
	uppers = append(uppers, math.Inf(1))
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cumulative[i] = acc
	}
	return uppers, cumulative
}

// ExponentialBuckets returns count upper bounds starting at start and
// multiplying by factor, for Registry.Histogram. It panics on a
// non-positive start, a factor <= 1 or a count < 1, like the equivalent
// Prometheus helper.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic(fmt.Sprintf("telemetry: invalid ExponentialBuckets(%g, %g, %d)", start, factor, count))
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefBuckets are generic latency-style buckets (seconds) used when a
// histogram is registered with nil buckets.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// family is one named metric with all its labeled series.
type family struct {
	name, help string
	kind       metricKind
	labelKeys  []string
	buckets    []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // rendered label block -> *Counter | *Gauge | *Histogram
}

// Registry holds metric families. Use NewRegistry; a nil Registry hands
// out nil handles, so instrumenting against a possibly-nil registry is
// safe and free.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// getFamily gets or creates a family, enforcing kind, label and bucket
// consistency. Re-registering a name with a different shape is a
// programming error and panics (matching the Prometheus client's
// behaviour).
func (r *Registry) getFamily(name, help string, kind metricKind, labelKeys []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %v, was %v", name, kind, f.kind))
		}
		if len(f.labelKeys) != len(labelKeys) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with %d labels, had %d", name, len(labelKeys), len(f.labelKeys)))
		}
		for i := range labelKeys {
			if f.labelKeys[i] != labelKeys[i] {
				panic(fmt.Sprintf("telemetry: metric %q re-registered with label %q, had %q", name, labelKeys[i], f.labelKeys[i]))
			}
		}
		return f
	}
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, k := range labelKeys {
		if !validName(k) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on metric %q", k, name))
		}
	}
	if kind == kindHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
		}
		buckets = append([]float64(nil), buckets...)
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelKeys: append([]string(nil), labelKeys...),
		buckets:   buckets,
		series:    make(map[string]any),
	}
	r.fams[name] = f
	return f
}

// get returns the series keyed by a rendered label block, creating it when
// missing.
func (f *family) get(key string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = new(Counter)
	case kindGauge:
		m = new(Gauge)
	default:
		m = &Histogram{uppers: f.buckets, counts: make([]uint64, len(f.buckets)+1)}
	}
	f.series[key] = m
	return m
}

// Vec is a metric family with label dimensions; a nil Vec hands out nil
// metrics.
type Vec[M Counter | Gauge | Histogram] struct{ f *family }

// CounterVec, GaugeVec and HistogramVec are the labeled families.
type (
	CounterVec   = Vec[Counter]
	GaugeVec     = Vec[Gauge]
	HistogramVec = Vec[Histogram]
)

// With returns the metric for the given label values (one per label key,
// in registration order), creating it on first use.
func (v *Vec[M]) With(labelValues ...string) *M {
	if v == nil {
		return nil
	}
	return v.f.get(v.f.encode(labelValues)).(*M)
}

// vec gets or creates the family and wraps it; a nil registry gives a nil
// Vec.
func vec[M Counter | Gauge | Histogram](r *Registry, name, help string, kind metricKind, buckets []float64, labelKeys []string) *Vec[M] {
	if r == nil {
		return nil
	}
	return &Vec[M]{f: r.getFamily(name, help, kind, labelKeys, buckets)}
}

// Counter returns the unlabeled counter with the given name, registering
// it on first use.
func (r *Registry) Counter(name, help string) *Counter { return r.CounterVec(name, help).With() }

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge { return r.GaugeVec(name, help).With() }

// Histogram returns the unlabeled histogram with the given name. buckets
// are the ascending upper bounds (the +Inf bucket is implicit); nil means
// DefBuckets. Buckets are fixed by the first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return vec[Counter](r, name, help, kindCounter, nil, labelKeys)
}

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	return vec[Gauge](r, name, help, kindGauge, nil, labelKeys)
}

// HistogramVec returns the labeled histogram family with the given name
// and shared buckets (nil means DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	return vec[Histogram](r, name, help, kindHistogram, buckets, labelKeys)
}

// encode renders label values as the series' {k="v",...} block, escaped the
// way the exposition prints it. The block is also the series key: escaping
// leaves every value's closing quote unambiguous, so no two value lists
// share a key.
func (f *family) encode(values []string) string {
	if len(values) != len(f.labelKeys) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labelKeys), len(values)))
	}
	if len(values) == 0 {
		return ""
	}
	n := 1
	for i, k := range f.labelKeys {
		n += len(k) + len(values[i]) + 4
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteByte('{')
	for i, k := range f.labelKeys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// validName reports whether s matches the Prometheus metric/label name
// charset [a-zA-Z_][a-zA-Z0-9_]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
