package sched

import (
	"math"
	"sync"
	"sync/atomic"

	"idxflow/internal/dataflow"
	"idxflow/internal/telemetry"
)

// Warm carries scheduler state across consecutive submissions so the
// submit→schedule→adopt hot path is incremental instead of from-scratch:
//
//   - a frontier memo: the Pareto frontier of the last scheduling problem,
//     keyed by an exact signature of (graph, options). A lookup hits only
//     when the full signature matches, and the skyline scheduler is
//     deterministic, so the replayed frontier is bit-identical to what a
//     cold run would compute — the equivalence the golden cold-vs-warm
//     suite and FuzzWarmFrontier verify.
//   - the idle-slot capacity of the last adopted schedule, fed back into
//     the next run as a buffer-size hint (sizing, never semantics).
//
// A Warm value is owned by one tuner service; methods are safe for the
// concurrent reporting reads the QaaS pipeline performs.
type Warm struct {
	mu sync.Mutex

	sig      []uint64
	frontier []*Schedule // owned clones; handed out re-cloned

	// idleHint seeds new schedules' IdleSlots capacity hint.
	idleHint int

	hits   atomic.Uint64
	misses atomic.Uint64

	hitCounter *telemetry.Counter
}

// NewWarm returns an empty warm-start state. reg may be nil; the telemetry
// handles degrade to no-ops.
func NewWarm(reg *telemetry.Registry) *Warm {
	return &Warm{
		hitCounter: reg.Counter("idxflow_sched_warm_hits_total",
			"Warm-frontier memo hits: submissions scheduled by replaying the carried Pareto frontier."),
	}
}

// WarmStats is a point-in-time snapshot of the warm-start counters for
// reports and the loadgen summary.
type WarmStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Stats snapshots the counters.
func (w *Warm) Stats() WarmStats {
	if w == nil {
		return WarmStats{}
	}
	return WarmStats{Hits: w.hits.Load(), Misses: w.misses.Load()}
}

// lookup returns clones of the memoized frontier when sig matches exactly,
// or nil. Cloning keeps the memo immune to caller mutation (the
// interleaver packs build ops into the returned schedules).
func (w *Warm) lookup(sig []uint64) []*Schedule {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.frontier) == 0 || len(sig) != len(w.sig) {
		w.misses.Add(1)
		return nil
	}
	for i, v := range sig {
		if w.sig[i] != v {
			w.misses.Add(1)
			return nil
		}
	}
	out := make([]*Schedule, len(w.frontier))
	for i, s := range w.frontier {
		out[i] = s.Clone()
	}
	w.hits.Add(1)
	w.hitCounter.Inc()
	return out
}

// store memoizes clones of frontier under sig, replacing any previous
// entry: consecutive submissions rarely repeat older-than-last problems,
// so one entry bounds the memory.
func (w *Warm) store(sig []uint64, frontier []*Schedule) {
	if len(frontier) == 0 {
		return
	}
	clones := make([]*Schedule, len(frontier))
	for i, s := range frontier {
		clones[i] = s.Clone()
	}
	w.mu.Lock()
	w.sig = append(w.sig[:0], sig...)
	w.frontier = clones
	w.mu.Unlock()
}

// NoteAdoption records the idle-slot capacity of the schedule the tuner
// adopted (post-repair when faults struck) as the next run's hint.
func (w *Warm) NoteAdoption(s *Schedule) {
	if w == nil || s == nil {
		return
	}
	w.mu.Lock()
	w.idleHint = s.idleCap
	w.mu.Unlock()
}

// seedHints applies the carried capacity hint to a fresh schedule. Hints
// size buffers only — they cannot change any computed value, so the warm
// path stays bit-identical to cold by construction.
func (w *Warm) seedHints(s *Schedule) {
	if w == nil {
		return
	}
	w.mu.Lock()
	if w.idleHint > s.idleCap {
		s.idleCap = w.idleHint
	}
	w.mu.Unlock()
}

// fnvStep folds one 64-bit word into an FNV-1a style running hash.
func fnvStep(h, w uint64) uint64 {
	const prime = 1099511628211
	h ^= w
	h *= prime
	return h
}

// strWord hashes a string to one signature word.
func strWord(s string) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// warmSig builds the exact signature of a scheduling problem: every
// operator field the scheduler or the downstream simulator reads, every
// edge, and every option that shapes the frontier. Telemetry, tracing and
// provenance attribution never influence placements and are excluded.
func warmSig(g *dataflow.Graph, o *Options, withOptional bool) []uint64 {
	n := g.Len()
	sig := make([]uint64, 0, 2*n+16)
	flag := uint64(0)
	if withOptional {
		flag = 1
	}
	sig = append(sig, flag,
		uint64(o.MaxContainers), uint64(o.MaxSkyline),
		math.Float64bits(o.Pricing.QuantumSeconds),
		math.Float64bits(o.Pricing.VMPerQuantum),
		math.Float64bits(o.Pricing.StoragePerMBQuantum),
		uint64(o.Spec.CPUs), math.Float64bits(o.Spec.MemoryMB),
		math.Float64bits(o.Spec.DiskMB), math.Float64bits(o.Spec.DiskMBps),
		math.Float64bits(o.Spec.NetMBps),
		uint64(len(o.Types)))
	for _, t := range o.Types {
		h := strWord(t.Name)
		h = fnvStep(h, math.Float64bits(t.PricePerQuantum))
		h = fnvStep(h, math.Float64bits(t.SpeedFactor))
		h = fnvStep(h, uint64(t.Spec.CPUs))
		h = fnvStep(h, math.Float64bits(t.Spec.MemoryMB))
		h = fnvStep(h, math.Float64bits(t.Spec.DiskMB))
		h = fnvStep(h, math.Float64bits(t.Spec.DiskMBps))
		h = fnvStep(h, math.Float64bits(t.Spec.NetMBps))
		sig = append(sig, h)
	}
	sig = append(sig, uint64(n))
	for i := 0; i < n; i++ {
		id := dataflow.OpID(i)
		op := g.Op(id)
		h := strWord(op.Name)
		h = fnvStep(h, uint64(op.Kind))
		h = fnvStep(h, math.Float64bits(op.Time))
		h = fnvStep(h, math.Float64bits(op.CPU))
		h = fnvStep(h, math.Float64bits(op.Memory))
		h = fnvStep(h, math.Float64bits(op.Disk))
		h = fnvStep(h, uint64(int64(op.Priority)))
		if op.Optional {
			h = fnvStep(h, 1)
		}
		h = fnvStep(h, strWord(op.BuildsIndex))
		for _, r := range op.Reads {
			h = fnvStep(h, strWord(r))
		}
		for _, e := range g.Out(id) {
			h = fnvStep(h, uint64(e.To))
			h = fnvStep(h, math.Float64bits(e.Size))
		}
		sig = append(sig, h)
	}
	return sig
}
