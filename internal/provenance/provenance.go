// Package provenance is the decision flight recorder: a fixed-capacity
// ring buffer of typed events, one per consequential tuner decision —
// dataflow admission and skyline choice (Algorithm 1), index adoption and
// eviction with the Eq. 2–5 gain inputs that justified them, interleaved
// build placement (§5.3), fault injection/recovery (§6.4), and per-flow
// money settlement (§4).
//
// The recorder is seed-deterministic: events carry simulated service time,
// never wall-clock time, so two runs with the same seed produce the same
// log. Appends take one mutex and copy the event into a ring slot; a nil
// recorder is off and costs a single nil check, so recording can stay
// threaded through hot paths the way nil tracer spans do. There is no
// package-level recorder: the binary that wants a log creates one.
package provenance

import (
	"encoding/json"
	"fmt"
	"sync"
)

// FlowID identifies one submitted dataflow. IDs are assigned by the
// service in submission order starting at 1, so they are stable across
// runs with the same seed; 0 means "not attributed to a flow" (the events
// an executor returns carry 0 until the pass that ran it stamps them).
type FlowID uint64

// Kind discriminates event types. It marshals to/from the stable string
// names below, which are part of the JSONL format.
type Kind int

const (
	// KindFlowAdmitted: a dataflow entered the service (Algorithm 1
	// admission). Name is the dataflow name, Count its operator count.
	KindFlowAdmitted Kind = iota
	// KindFlowScheduled: the scheduler picked a skyline point for the
	// flow. Makespan/MoneyQuanta/Containers describe the chosen plan;
	// Alts holds the Pareto alternatives it beat (§5.2).
	KindFlowScheduled
	// KindIndexAdopted: the evaluator ranked an index beneficial
	// (Eq. 2–5: gt > 0 and gm > 0) for this flow. TimeGain, MoneyGain,
	// Gain, BuildQuanta, SizeMB, FadeD, WindowW, Records carry the
	// inputs that justified it.
	KindIndexAdopted
	// KindIndexRejected: a candidate whose weighted gain was not
	// beneficial; kept so "why was no index built" is answerable.
	KindIndexRejected
	// KindIndexEvicted: the Gain strategy deleted a non-beneficial
	// index (Algorithm 1 line 13). TimeGain/MoneyGain are its faded
	// window gains at eviction time.
	KindIndexEvicted
	// KindIndexInvalidated: batch updates invalidated index partitions
	// (§6.3); Count is the number of partitions dropped.
	KindIndexInvalidated
	// KindBuildPlaced: one partition-build op was interleaved into the
	// flow's idle slots (§5.3). Op is the building operator, Container
	// and Start/End the placement.
	KindBuildPlaced
	// KindBuildCommitted: a build op finished inside the execution and
	// its partition became queryable. Part is the partition id.
	KindBuildCommitted
	// KindBuildKilled: a build op was killed before completion; Reason
	// is one of "preempted", "expired", "fault".
	KindBuildKilled
	// KindInterleaved: summary of one interleave pass — Count placements
	// (summed across all skyline schedules, each packed independently) of
	// Records offered build ops, over Containers skyline schedules.
	KindInterleaved
	// KindFaultInjected: a fault fired during execution. Name is the
	// fault kind (crash, revocation, storage-error, straggler).
	KindFaultInjected
	// KindFaultRecovered: a fault's effects were repaired or re-run.
	KindFaultRecovered
	// KindMoneySettled: end-of-flow quantum settlement (§4 pricing):
	// MoneyQuanta charged, Makespan achieved, WastedQuanta lost to
	// faults.
	KindMoneySettled

	numKinds
)

var kindNames = [numKinds]string{
	KindFlowAdmitted:     "flow-admitted",
	KindFlowScheduled:    "flow-scheduled",
	KindIndexAdopted:     "index-adopted",
	KindIndexRejected:    "index-rejected",
	KindIndexEvicted:     "index-evicted",
	KindIndexInvalidated: "index-invalidated",
	KindBuildPlaced:      "build-placed",
	KindBuildCommitted:   "build-committed",
	KindBuildKilled:      "build-killed",
	KindInterleaved:      "interleaved",
	KindFaultInjected:    "fault-injected",
	KindFaultRecovered:   "fault-recovered",
	KindMoneySettled:     "money-settled",
}

// String returns the stable wire name of the kind.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind resolves a wire name ("index-adopted", "fault-injected", ...)
// back to its Kind — the /debug/events?kind= filter parser.
func ParseKind(s string) (Kind, error) {
	for i, name := range kindNames {
		if name == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("provenance: unknown event kind %q", s)
}

// MarshalJSON writes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts the string names written by MarshalJSON.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("provenance: unknown event kind %q", s)
}

// ParetoPoint is one skyline alternative the scheduler considered:
// a (makespan, money) trade-off with its container count.
type ParetoPoint struct {
	Makespan    float64 `json:"makespan"`
	MoneyQuanta float64 `json:"money_quanta"`
	Containers  int     `json:"containers,omitempty"`
}

// Event is one recorded decision. It is a single flat struct so the ring
// buffer holds events by value: appending copies into a ring slot and, once
// the slot's chunk exists, allocates nothing (except FlowScheduled's Alts
// slice, built once per flow). Fields irrelevant to a kind stay zero and
// are omitted from JSON.
type Event struct {
	Seq  uint64  `json:"seq"`
	Kind Kind    `json:"kind"`
	Flow FlowID  `json:"flow,omitempty"`
	T    float64 `json:"t"` // simulated service time, seconds

	Name      string  `json:"name,omitempty"` // dataflow, index, or fault-kind name
	Op        string  `json:"op,omitempty"`   // operator name
	Container int     `json:"container,omitempty"`
	Part      int     `json:"part,omitempty"`
	Start     float64 `json:"start,omitempty"` // seconds, relative to flow start
	End       float64 `json:"end,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	Count     int     `json:"count,omitempty"`

	// Eq. 2–5 gain inputs (index adoption/eviction).
	TimeGain    float64 `json:"gt,omitempty"`
	MoneyGain   float64 `json:"gm,omitempty"`
	Gain        float64 `json:"gain,omitempty"`
	BuildQuanta float64 `json:"build_quanta,omitempty"`
	SizeMB      float64 `json:"size_mb,omitempty"`
	FadeD       float64 `json:"fade_d,omitempty"`
	WindowW     float64 `json:"window_w,omitempty"`
	Records     int     `json:"records,omitempty"` // history records in the window

	// Scheduling and settlement.
	Makespan     float64       `json:"makespan,omitempty"`
	MoneyQuanta  float64       `json:"money_quanta,omitempty"`
	WastedQuanta float64       `json:"wasted_quanta,omitempty"`
	Containers   int           `json:"containers,omitempty"`
	Alts         []ParetoPoint `json:"alts,omitempty"` // rejected Pareto alternatives
}

// DefaultCapacity is the ring size used by NewRecorder(0): large enough to
// hold every event of the stock experiment scenarios without wrapping.
const DefaultCapacity = 16384

// chunkEvents is how many events one ring chunk holds (≈0.94 MB of
// Events). The ring grows a chunk at a time rather than by append
// doubling, which would copy the whole log under the recorder mutex on the
// submit path and overshoot the capacity.
const chunkEvents = 4096

// Recorder is the flight recorder: a fixed-capacity ring of Events, held
// as chunks of chunkEvents slots (the last one shorter when the capacity
// is not a multiple). A chunk is allocated the first time a slot in it is
// written, so a recorder costs memory for the events it has seen, up to its
// capacity; once every chunk exists appends overwrite in place and never
// allocate. Appends are cheap (one mutex, one struct copy); when the ring
// is full the oldest events are overwritten, and Snapshot reconstructs seq
// order across the wrap. A nil Recorder is off: a valid no-op.
type Recorder struct {
	mu     sync.Mutex
	chunks [][]Event
	cap    int
	next   uint64 // total events ever appended; slot next%cap is written next
}

// NewRecorder returns a recorder with the given ring capacity
// (DefaultCapacity if capacity <= 0). The capacity is an upper bound: the
// ring is allocated chunkEvents events at a time as it fills.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		chunks: make([][]Event, (capacity+chunkEvents-1)/chunkEvents),
		cap:    capacity,
	}
}

// Active reports whether appends are being recorded, that is whether r is
// non-nil. Hot paths use it to skip building events entirely when
// recording is off.
func (r *Recorder) Active() bool { return r != nil }

// Append stamps the event's sequence number and stores it in the ring,
// overwriting the oldest event when full. Callers set every field except
// Seq. Safe for concurrent use.
func (r *Recorder) Append(e Event) {
	if !r.Active() {
		return
	}
	r.mu.Lock()
	slot := int(r.next % uint64(r.cap))
	ci := slot / chunkEvents
	c := r.chunks[ci]
	if c == nil {
		c = make([]Event, min(chunkEvents, r.cap-ci*chunkEvents))
		r.chunks[ci] = c
	}
	e.Seq = r.next
	c[slot%chunkEvents] = e
	r.next++
	r.mu.Unlock()
}

// held returns the number of retained events; the caller holds r.mu.
func (r *Recorder) held() uint64 {
	return min(r.next, uint64(r.cap))
}

// Len returns the number of events currently held (≤ capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.held())
}

// Cap returns the ring capacity: the number of events held before the
// oldest is overwritten.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.cap
}

// Total returns the number of events ever appended, including any that
// have been overwritten.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Dropped returns how many events were overwritten by the ring wrapping.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - r.held()
}

// Filter chooses which retained events Select copies. The zero Filter
// matches every event. It is data rather than a predicate so that no
// caller code runs under the recorder's lock.
type Filter struct {
	// ByKind restricts the selection to events of Kind.
	ByKind bool
	Kind   Kind
	// ByFlow restricts the selection to events attributed to Flow
	// (0 selects the unattributed ones).
	ByFlow bool
	Flow   FlowID
}

func (f Filter) matches(e *Event) bool {
	return (!f.ByKind || e.Kind == f.Kind) && (!f.ByFlow || e.Flow == f.Flow)
}

// Select walks the retained events in place, in ascending Seq order across
// any wraparound, and returns copies of those f matches: only what is
// returned is copied, whatever the ring holds. last ≥ 0 keeps only the
// newest last matches; negative keeps them all. The result is nil when
// nothing matches and is safe to keep while appends continue.
func (r *Recorder) Select(f Filter, last int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.next - r.held()
	all := f == Filter{}
	var out []Event
	if all {
		// Every event matches, so the newest `last` are the ring's tail.
		if last >= 0 && uint64(last) < r.next-seq {
			seq = r.next - uint64(last)
		}
		if seq < r.next {
			out = make([]Event, 0, r.next-seq)
		}
	}
	for seq < r.next {
		// One run of consecutive slots inside a single chunk.
		slot := int(seq % uint64(r.cap))
		c := r.chunks[slot/chunkEvents]
		run := c[slot%chunkEvents:]
		if left := r.next - seq; uint64(len(run)) > left {
			run = run[:left]
		}
		if all {
			out = append(out, run...)
		} else {
			for i := range run {
				if f.matches(&run[i]) {
					out = append(out, run[i])
				}
			}
		}
		seq += uint64(len(run))
	}
	if last >= 0 && len(out) > last {
		out = out[len(out)-last:]
	}
	return out
}

// Snapshot returns the retained events in ascending Seq order, handling
// ring wraparound: after an overwrite the snapshot starts at the oldest
// surviving event. The returned slice is a copy, safe to keep while
// appends continue.
func (r *Recorder) Snapshot() []Event { return r.Select(Filter{}, -1) }

// FlowEvents returns the retained events attributed to one flow, in Seq
// order — the causally-ordered decision chain behind that dataflow's cost.
func (r *Recorder) FlowEvents(id FlowID) []Event {
	return r.Select(Filter{ByFlow: true, Flow: id}, -1)
}
