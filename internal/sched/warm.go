package sched

import (
	"math"
	"slices"

	"idxflow/internal/dataflow"
)

// The warm start. A Skyline remembers the Pareto frontier of its last
// scheduling problem, keyed by an exact signature of (graph, options), and
// replays it when the next problem matches the full signature. The skyline
// scheduler is deterministic, so the replayed frontier is bit-identical to
// what a cold run would compute — the equivalence the golden cold-vs-warm
// suites and FuzzWarmFrontier verify. A fresh Skyline is cold; one that has
// run is warm. One entry bounds the memory: consecutive submissions rarely
// repeat older-than-last problems.

// WarmStats is a point-in-time snapshot of the warm-start counters for
// reports and the loadgen summary.
type WarmStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// WarmStats snapshots the memo's counters. Like every Skyline method it
// must not run concurrently with a schedule.
func (sk *Skyline) WarmStats() WarmStats {
	return WarmStats{Hits: sk.hits, Misses: sk.misses}
}

// lookup returns clones of the memoized frontier when sig matches exactly,
// or nil. Cloning keeps the memo immune to caller mutation (the interleaver
// packs build ops into the returned schedules), and a clone shares no
// storage with anything a later run recycles.
func (sk *Skyline) lookup(sig []uint64) []*Schedule {
	if len(sk.memo) == 0 || !slices.Equal(sig, sk.sig) {
		sk.misses++
		return nil
	}
	out := make([]*Schedule, len(sk.memo))
	for i, s := range sk.memo {
		out[i] = s.Clone()
	}
	sk.hits++
	sk.warmHits.Inc()
	return out
}

// store memoizes copies of frontier under sig, taken from the run's free
// list, as the new entry.
func (sk *Skyline) store(sig []uint64, frontier []*Schedule, free *freeList) {
	sk.sig, sk.memo = sig, make([]*Schedule, len(frontier))
	for i, s := range frontier {
		sk.memo[i] = free.get()
		sk.memo[i].CopyFrom(s)
	}
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

// warmSig builds the exact signature of a scheduling problem: every field
// of every operator but its id, every edge, and every option that shapes the
// frontier. Some hashed fields (Priority, Reads, BuildsIndex) shape no
// placement; hashing them too keeps a hit from depending on which fields the
// scheduler reads. Options.Metrics never influences placements and is
// excluded.
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
