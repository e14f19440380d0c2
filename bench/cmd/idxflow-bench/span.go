package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the boundary. parent is the index of the enclosing
// span (-1 for a root); op is the workload operation the call belongs to.
// The allocation fields are runtime.MemStats deltas across the call: the
// traced run is single-goroutine, so they are near exact.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent, op int
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced pass of a replay runs the same code.
// It is not telemetry.Tracer: that one carries neither parent nor op id,
// and takes a mutex and allocates an args map per span.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // indexes of the spans in progress, innermost last
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs fn inside a span named name. With a nil tracer it only runs fn.
func (t *tracer) do(name string, op int, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, op: op})
	t.open = append(t.open, id)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	runtime.ReadMemStats(&after)
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.start, s.end = start, end
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	s.mallocs = after.Mallocs - before.Mallocs
	s.gcCycles = after.NumGC - before.NumGC
}

// spanTotals sums the spans of one name.
type spanTotals struct {
	seconds    float64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
}

func (s spanTotals) ms() float64 { return s.seconds * 1e3 }

// totals sums spans by name. A parent's allocation deltas include its
// children's, as its duration does.
func (t *tracer) totals() map[string]spanTotals {
	out := make(map[string]spanTotals)
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		a := out[s.name]
		a.seconds += (s.end - s.start).Seconds()
		a.allocBytes += s.allocBytes
		a.mallocs += s.mallocs
		a.gcCycles += s.gcCycles
		out[s.name] = a
	}
	return out
}

// chromeEvent is a complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and ui.perfetto.dev open directly.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

// write stores the spans as a Chrome trace at path.
func (t *tracer) write(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Cat: strings.SplitN(s.name, ".", 2)[0], Phase: "X",
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			PID: 1, TID: 1,
			Args: map[string]any{
				"id": i, "parent": s.parent, "op": s.op,
				"alloc_bytes": s.allocBytes, "mallocs": s.mallocs,
			},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"displayTimeUnit": "ms", "traceEvents": events,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
