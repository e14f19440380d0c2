package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"idxflow/internal/dataflow"
)

// RepairedOp records what Repair did to one operator that was orphaned by
// a container failure.
type RepairedOp struct {
	Op dataflow.OpID
	// Old is the assignment on the failed container.
	Old Assignment
	// New is the replacement assignment on a surviving container; zero
	// when Dropped.
	New Assignment
	// Dropped reports an optional (index-build) operator that was removed
	// instead of re-placed: its partition re-enters the tuner's
	// beneficial set and is rebuilt in a future idle slot.
	Dropped bool
	// WastedSeconds is planned work the failure discarded: the part of an
	// in-flight operator's interval that ran before the failure.
	WastedSeconds float64
}

// Repair heals the schedule after container `dead` fails at time `at`:
// operators that finished before the failure keep their assignments (their
// outputs are durable), in-flight and not-yet-started dataflow operators
// are re-placed onto surviving containers at or after the failure time,
// and orphaned optional index-build operators are dropped — the tuner
// re-offers their partitions later. Because idle slots are derived from
// assignments (IdleSlots walks the current placement), the repaired
// schedule's fragmentation and interleaving views stay consistent
// automatically.
//
// Re-placement is deterministic list scheduling in topological order: each
// orphan goes to the container giving the earliest feasible start, ties
// broken by the lowest container index; a fresh container is opened only
// when no survivor holds any operator. Repair mutates the schedule — clone
// first if the planned placement must be preserved.
func (s *Schedule) Repair(dead int, at float64) ([]RepairedOp, error) {
	if dead < 0 || dead >= len(s.conts) {
		return nil, nil
	}
	// Collect orphans: anything on the dead container still running or
	// not yet started at the failure time.
	n := 0
	for _, id := range s.conts[dead].ops {
		if s.assign[id].End > at+1e-9 {
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]RepairedOp, 0, n)
	kept := s.conts[dead].ops[:0]
	for _, id := range s.conts[dead].ops {
		a := s.assign[id]
		if a.End <= at+1e-9 {
			kept = append(kept, id)
			continue
		}
		wasted := 0.0
		if a.Start < at {
			wasted = at - a.Start
		}
		out = append(out, RepairedOp{Op: id, Old: a, WastedSeconds: wasted})
		s.clearAssign(id)
	}
	s.conts[dead].ops = kept
	// Orphan deletion shrinks the dead container's extent and removes
	// non-optional ops: recount its books and drop the makespan cache.
	s.retally(dead)
	s.msValid = false

	// Survivors are the used containers but the dead one; a fresh container
	// is opened only if there is none.
	fresh := len(s.conts)
	for c := range s.conts {
		if c != dead && len(s.conts[c].ops) > 0 {
			fresh = -1
			break
		}
	}
	if fresh >= 0 {
		s.ensureContainer(fresh)
	}

	// Re-place non-optional orphans in topological order so predecessors
	// are always assigned before their dependents are placed.
	topo, err := s.Graph.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("sched: repair: %w", err)
	}
	rank := make([]int32, len(topo))
	for i, id := range topo {
		rank[id] = int32(i)
	}
	slices.SortFunc(out, func(a, b RepairedOp) int { return cmp.Compare(rank[a.Op], rank[b.Op]) })

	for i := range out {
		rop := &out[i]
		if s.Graph.Op(rop.Op).Optional {
			rop.Dropped = true
			continue
		}
		bestC, bestStart := -1, math.Inf(1)
		for c := range s.conts {
			if c == dead || c != fresh && len(s.conts[c].ops) == 0 {
				continue
			}
			ready, rerr := s.ReadyTime(rop.Op, c)
			if rerr != nil {
				return nil, fmt.Errorf("sched: repair op %d: %w", rop.Op, rerr)
			}
			start := math.Max(math.Max(ready, s.lastEnd(c)), at)
			if start < bestStart-1e-9 {
				bestC, bestStart = c, start
			}
		}
		a, perr := s.PlaceAt(rop.Op, bestC, bestStart)
		if perr != nil {
			return nil, fmt.Errorf("sched: repair op %d: %w", rop.Op, perr)
		}
		rop.New = a
	}
	return out, nil
}
