package sched

import (
	"fmt"
	"math"
	"sort"

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
	var orphans []dataflow.OpID
	kept := s.conts[dead][:0]
	repairedAt := make(map[dataflow.OpID]RepairedOp)
	for _, id := range s.conts[dead] {
		a := s.assign[id]
		if a.End <= at+1e-9 {
			kept = append(kept, id)
			continue
		}
		wasted := 0.0
		if a.Start < at {
			wasted = at - a.Start
		}
		repairedAt[id] = RepairedOp{Op: id, Old: a, WastedSeconds: wasted}
		orphans = append(orphans, id)
		s.clearAssign(id)
	}
	s.conts[dead] = kept
	if len(orphans) == 0 {
		return nil, nil
	}
	// Orphan deletion shrinks the dead container's extent and removes
	// non-optional ops: drop the memoized lease end and makespan cache.
	s.invalidateLease(dead)
	s.msValid = false

	// Survivors that already hold work; open a fresh container only if
	// every used container is the dead one.
	var survivors []int
	for c := range s.conts {
		if c != dead && len(s.conts[c]) > 0 {
			survivors = append(survivors, c)
		}
	}
	if len(survivors) == 0 {
		fresh := len(s.conts)
		s.ensureContainer(fresh)
		survivors = []int{fresh}
	}

	// Re-place non-optional orphans in topological order so predecessors
	// are always assigned before their dependents are placed.
	topo, err := s.Graph.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("sched: repair: %w", err)
	}
	rank := make(map[dataflow.OpID]int, len(topo))
	for i, id := range topo {
		rank[id] = i
	}
	sort.SliceStable(orphans, func(i, j int) bool { return rank[orphans[i]] < rank[orphans[j]] })

	out := make([]RepairedOp, 0, len(orphans))
	for _, id := range orphans {
		rop := repairedAt[id]
		if s.Graph.Op(id).Optional {
			rop.Dropped = true
			out = append(out, rop)
			continue
		}
		bestC, bestStart := -1, math.Inf(1)
		for _, c := range survivors {
			ready, rerr := s.ReadyTime(id, c)
			if rerr != nil {
				return nil, fmt.Errorf("sched: repair op %d: %w", id, rerr)
			}
			start := math.Max(math.Max(ready, s.lastEnd(c)), at)
			if start < bestStart-1e-9 {
				bestC, bestStart = c, start
			}
		}
		a, perr := s.PlaceAt(id, bestC, bestStart)
		if perr != nil {
			return nil, fmt.Errorf("sched: repair op %d: %w", id, perr)
		}
		rop.New = a
		out = append(out, rop)
	}
	return out, nil
}
