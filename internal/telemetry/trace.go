package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one completed span in the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// a "complete" event ("ph":"X") with microsecond timestamp and duration
// relative to the start of the trace.
type Event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`  // microseconds since trace start
	Dur   float64        `json:"dur"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// Tracer records nested spans. Create one with NewTracer; a nil Tracer,
// or one that is disabled, hands out nil Spans whose methods are no-ops,
// so tracing can stay threaded through hot paths at negligible cost.
type Tracer struct {
	mu      sync.Mutex
	enabled bool
	epoch   time.Time
	events  []Event
	depth   int // open spans, for the nesting sanity check in tests
	now     func() time.Time
}

// NewTracer returns an enabled tracer whose timestamps are relative to
// now.
func NewTracer() *Tracer {
	return &Tracer{enabled: true, epoch: time.Now(), now: time.Now}
}

var stdTracer = &Tracer{epoch: time.Now(), now: time.Now} // disabled until asked for

// DefaultTracer returns the package-level tracer. It starts disabled:
// spans cost one nil check until SetEnabled(true) — how the -trace CLI
// flags switch tracing on for code that defaulted to this tracer.
func DefaultTracer() *Tracer { return stdTracer }

// SetEnabled turns span recording on or off. Enabling resets the epoch so
// timestamps start near zero.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if on && !t.enabled {
		t.epoch = t.now()
	}
	t.enabled = on
}

// Span is one in-flight operation. End completes it; SetAttr attaches a
// key/value rendered into the Chrome trace "args". A nil Span is a no-op.
// Spans are safe for concurrent use. Nothing in the tree shares one today (a
// pass starts, attributes and ends its spans on its own goroutine); the
// mutex is for a handle that a hook or a future stage hands to another.
type Span struct {
	t     *Tracer
	name  string
	start time.Time

	mu    sync.Mutex // guards args and ended
	args  map[string]any
	ended bool
}

// StartSpan opens a span. Nest spans by starting and ending them in LIFO
// order on one goroutine; chrome://tracing infers the hierarchy from the
// containment of [ts, ts+dur] intervals on the same thread lane.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if !t.enabled {
		t.mu.Unlock()
		return nil
	}
	t.depth++
	now := t.now()
	t.mu.Unlock()
	return &Span{t: t, name: name, start: now}
}

// SetAttr attaches an attribute to the span. Values must be
// JSON-serializable (numbers, strings, bools, maps, slices).
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s // attribute arrived after End; the event is already recorded
	}
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = value
	return s
}

// End completes the span and records its event. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	args := s.args
	s.mu.Unlock()
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.now()
	t.depth--
	t.events = append(t.events, Event{
		Name:  s.name,
		Cat:   "idxflow",
		Phase: "X",
		TS:    float64(s.start.Sub(t.epoch)) / float64(time.Microsecond),
		Dur:   float64(end.Sub(s.start)) / float64(time.Microsecond),
		PID:   1,
		TID:   1,
		Args:  args,
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

// Len returns the number of completed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Reset discards all recorded events and restarts the epoch.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = nil
	t.epoch = t.now()
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
