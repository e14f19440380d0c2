package telemetry

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
	"time"
)

// Event is one completed span in the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// a "complete" event ("ph":"X") with microsecond timestamp and duration
// relative to the start of the trace, on its span's lane.
type Event struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat,omitempty"`
	Phase string  `json:"ph"`
	TS    float64 `json:"ts"`  // microseconds since trace start
	Dur   float64 `json:"dur"` // microseconds
	PID   int     `json:"pid"`
	TID   int     `json:"tid"` // the span's lane
	Args  Args    `json:"args"`
}

// Args identifies a span: which one it is, which span encloses it and which
// pass it times. What the pass decided is in that flow's provenance events,
// not in its spans.
type Args struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	FlowID uint64 `json:"flow_id"`
}

// Tracer records spans. Create one with NewTracer; a nil Tracer is off: it
// hands out nil Spans whose methods are no-ops, so tracing can stay threaded
// through hot paths at the cost of one nil check.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	events []Event
	now    func() time.Time
	nextID int
	lanes  []bool // lanes[i]: an open root span holds lane i+1
}

// NewTracer returns a tracer whose timestamps are relative to now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), now: time.Now}
}

// Span is one in-flight operation: its name, start and identity. End
// completes it. A span belongs to the goroutine that opened it, and a child
// ends before its parent. A nil Span is a no-op.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
	args  Args
	lane  int
	ended bool
}

// StartSpan opens a root span timing the pass of flow, on the lowest lane no
// open root holds: passes that run one after another share lane 1, and
// concurrent passes get a lane each, so a viewer that infers nesting from
// containment on a lane nests every span under its own pass.
func (t *Tracer) StartSpan(name string, flow uint64) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := slices.Index(t.lanes, false)
	if lane < 0 {
		lane = len(t.lanes)
		t.lanes = append(t.lanes, true)
	}
	t.lanes[lane] = true
	return t.open(name, Args{Parent: -1, FlowID: flow}, lane+1)
}

// StartSpan opens a child of s, on its lane and timing its flow.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open(name, Args{Parent: s.args.ID, FlowID: s.args.FlowID}, s.lane)
}

// open assigns the span its id and start time; t.mu is held.
func (t *Tracer) open(name string, args Args, lane int) *Span {
	args.ID = t.nextID
	t.nextID++
	return &Span{t: t, name: name, start: t.now(), args: args, lane: lane}
}

// End completes the span, records its event and, for a root, frees its
// lane. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.args.Parent < 0 {
		t.lanes[s.lane-1] = false
	}
	end := t.now()
	t.events = append(t.events, Event{
		Name:  s.name,
		Cat:   "idxflow",
		Phase: "X",
		TS:    float64(s.start.Sub(t.epoch)) / float64(time.Microsecond),
		Dur:   float64(end.Sub(s.start)) / float64(time.Microsecond),
		PID:   1,
		TID:   s.lane,
		Args:  s.args,
	})
}

// Events returns a copy of the recorded events in completion order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// chromeTrace is the JSON object format accepted by chrome://tracing and
// Perfetto.
type chromeTrace struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the recorded spans as a Chrome trace-event JSON
// object, loadable directly in chrome://tracing or https://ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
