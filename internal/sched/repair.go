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
// when no survivor holds any operator. rank gives every operator of
// s.Graph its position in one topological order, indexed by OpID: the
// caller computes it once, as the executor does before it repairs one
// container after another. Repair mutates the schedule — copy it first if
// the planned placement must be preserved.
//
// The repaired operators are appended to buf[:0], as AssignmentsAppend
// fills its buffer, so a caller that repairs many times allocates once.
func (s *Schedule) Repair(buf []RepairedOp, dead int, at float64, rank []int32) ([]RepairedOp, error) {
	out := buf[:0]
	if dead < 0 || dead >= len(s.conts) {
		return out, nil
	}
	// Collect orphans: anything on the dead container still running or
	// not yet started at the failure time.
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
	if len(out) == 0 {
		return out, nil
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
				return out[:0], fmt.Errorf("sched: repair op %d: %w", rop.Op, rerr)
			}
			start := math.Max(math.Max(ready, s.lastEnd(c)), at)
			if start < bestStart-1e-9 {
				bestC, bestStart = c, start
			}
		}
		a, perr := s.PlaceAt(rop.Op, bestC, bestStart)
		if perr != nil {
			return out[:0], fmt.Errorf("sched: repair op %d: %w", rop.Op, perr)
		}
		rop.New = a
	}
	return out, nil
}
