// Package fault defines deterministic, seed-reproducible fault plans for
// the execution simulator. The paper's QaaS layer rents VMs from an IaaS
// cloud but its evaluation is fault-free; spot/preemptible VMs — exactly
// where quantum-priced idle slots are cheapest — crash, get revoked with
// short notice, suffer transient storage errors, and straggle. A Plan is a
// time-ordered list of typed fault events, either scripted explicitly or
// drawn from seeded Poisson processes, that internal/sim consumes during
// execution: in-flight operators on failed containers are killed and
// re-placed on survivors, partially built index partitions are lost (and
// later healed by the tuner), transient storage errors are retried with
// capped exponential backoff, and stragglers slow realized runtimes.
//
// Everything is pure data plus seeded math/rand: the same seed always
// yields the same plan, so a faulty run is byte-identical across repeats.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind is the type of an injected fault.
type Kind int

// The fault kinds the simulator understands.
const (
	// ContainerCrash kills a container without warning: in-flight
	// operators die and un-persisted index-build output is lost.
	ContainerCrash Kind = iota
	// SpotRevocation reclaims a spot/preemptible container at time At
	// after NoticeSeconds of advance warning (the cloud's revocation
	// notice): no new operator starts inside the notice window, limiting
	// the in-flight loss to operators that started before it.
	SpotRevocation
	// StorageError is a transient storage-service read/write failure:
	// the affected transfer is retried with capped exponential backoff
	// and eventually succeeds, costing only time.
	StorageError
	// Straggler slows a container down by SlowFactor from time At onward
	// (degraded hardware, noisy neighbour): operators complete, late.
	Straggler
)

var kindNames = [...]string{"crash", "revocation", "storage-error", "straggler"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("fault(%d)", int(k))
	}
	return kindNames[k]
}

// AnyContainer targets an event at "whichever container is active": the
// executor resolves it deterministically against the containers the
// schedule actually uses, so a plan can be generated before the schedule
// exists.
const AnyContainer = -1

// Event is one injected fault.
type Event struct {
	// Seq is the event's position in its plan; the executor uses it to
	// resolve AnyContainer deterministically.
	Seq int `json:"seq"`
	// Kind selects the fault semantics.
	Kind Kind `json:"kind"`
	// At is the fault time in seconds. Inside a Plan, times are absolute
	// service time; Plan.From shifts them to execution-relative seconds.
	At float64 `json:"at"`
	// Container is the schedule container index the fault hits, or
	// AnyContainer to target an active container chosen by the executor.
	Container int `json:"container"`
	// NoticeSeconds is the advance warning of a SpotRevocation: the
	// container is reclaimed at At, announced at At-NoticeSeconds.
	NoticeSeconds float64 `json:"notice_seconds,omitempty"`
	// Retries is how many attempts a StorageError fails before the
	// transfer succeeds (minimum 1).
	Retries int `json:"retries,omitempty"`
	// SlowFactor multiplies operator runtimes for a Straggler (values
	// <= 1 are ignored).
	SlowFactor float64 `json:"slow_factor,omitempty"`
}

// KillsContainer reports whether the event permanently removes its
// container (crash or revocation).
func (e Event) KillsContainer() bool {
	return e.Kind == ContainerCrash || e.Kind == SpotRevocation
}

// Plan is a time-ordered fault schedule in absolute service-time seconds.
type Plan struct {
	Events []Event
}

// New builds a plan from explicit events, sorting them by time and
// assigning sequence numbers. Use it to script fault scenarios in tests.
func New(events ...Event) *Plan {
	p := &Plan{Events: append([]Event(nil), events...)}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	for i := range p.Events {
		p.Events[i].Seq = i
	}
	return p
}

// From returns the events at or after absolute time t, shifted to be
// relative to t — the executor's view for an execution starting at service
// time t. The service hands each execution this window; events that fall
// beyond the execution's leases simply hit nothing.
func (p *Plan) From(t float64) []Event {
	if p == nil {
		return nil
	}
	i := sort.Search(len(p.Events), func(i int) bool { return p.Events[i].At >= t })
	if i == len(p.Events) {
		return nil
	}
	out := make([]Event, len(p.Events)-i)
	copy(out, p.Events[i:])
	for j := range out {
		out[j].At -= t
	}
	return out
}

// The generated plan's kind split and per-kind parameters. A combined
// per-container-per-quantum fault rate (the -faults CLI knob) is split
// across the four kinds: 30% crashes, 20% revocations, 30% storage errors,
// 20% stragglers.
const (
	crashShare      = 0.3
	revocationShare = 0.2
	storageErrShare = 0.3
	stragglerShare  = 0.2
	// noticeSeconds is the spot-revocation warning, the common cloud
	// two-minute notice.
	noticeSeconds = 120
	// retries is the failed attempts per storage error.
	retries = 3
	// slowFactor is the straggler runtime multiplier.
	slowFactor = 2
)

// Generate draws a plan with the seed: each kind's share of the combined
// rate total (expected events per container per quantum of quantumSeconds)
// is an independent Poisson process over [0, horizonSeconds) targeted at
// AnyContainer, so the rate scales with the containers a schedule actually
// leases. The kinds' exponential inter-arrival times are merged and ordered
// by time; the same arguments always yield the identical plan.
func Generate(total, quantumSeconds, horizonSeconds float64, seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	var events []Event
	arrivals := func(share float64, make func(at float64) Event) {
		rate := share * total
		if rate <= 0 || quantumSeconds <= 0 || horizonSeconds <= 0 {
			return
		}
		mean := quantumSeconds / rate // seconds between events per container
		for t := rng.ExpFloat64() * mean; t < horizonSeconds; t += rng.ExpFloat64() * mean {
			events = append(events, make(t))
		}
	}
	arrivals(crashShare, func(at float64) Event {
		return Event{Kind: ContainerCrash, At: at, Container: AnyContainer}
	})
	arrivals(revocationShare, func(at float64) Event {
		return Event{Kind: SpotRevocation, At: at, Container: AnyContainer, NoticeSeconds: noticeSeconds}
	})
	arrivals(storageErrShare, func(at float64) Event {
		return Event{Kind: StorageError, At: at, Container: AnyContainer, Retries: retries}
	})
	arrivals(stragglerShare, func(at float64) Event {
		return Event{Kind: Straggler, At: at, Container: AnyContainer, SlowFactor: slowFactor}
	})
	return New(events...)
}

// Validate reports structural problems: unordered times, negative times,
// non-positive retry counts on storage errors, or slow factors <= 1.
func (p *Plan) Validate() error {
	prev := math.Inf(-1)
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("fault: event %d at negative time %g", i, e.At)
		}
		if e.At < prev {
			return fmt.Errorf("fault: event %d out of order (%g after %g)", i, e.At, prev)
		}
		prev = e.At
		switch e.Kind {
		case StorageError:
			if e.Retries < 1 {
				return fmt.Errorf("fault: storage-error event %d needs Retries >= 1", i)
			}
		case Straggler:
			if e.SlowFactor <= 1 {
				return fmt.Errorf("fault: straggler event %d needs SlowFactor > 1, got %g", i, e.SlowFactor)
			}
		case ContainerCrash, SpotRevocation:
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}
