// Package interleave implements the linear-program based index interleaving
// of §5.3 of the paper (Algorithm 2: packing index-build operators into the
// idle slots of an already-computed skyline with the per-slot knapsack of
// Algorithm 3) and the random baseline of §6. The online interleaving of
// §5.3.2 is the skyline scheduler itself: sched.Skyline.ScheduleWithOptional.
package interleave

import (
	"math/rand"
	"sort"

	"idxflow/internal/dataflow"
	"idxflow/internal/knapsack"
	"idxflow/internal/sched"
)

// LP is the linear-program based interleaving algorithm (Algorithm 2): it
// packs the optional (index-build) operators of g into the idle slots of
// every schedule of skyline, the skyline of g's non-optional operators, as
// PackSchedule does, and returns the number of build operators placed
// across it.
func LP(skyline []*sched.Schedule, g *dataflow.Graph, gains map[dataflow.OpID]float64) int {
	builds := optionalOps(g)
	placed := 0
	for _, s := range skyline {
		placed += len(pack(s, builds, gains))
	}
	return placed
}

// PackSchedule packs the optional operators of the schedule's graph that it
// does not place yet into its idle slots (lines 7-17 of Algorithm 2) and
// returns the operators placed. gains maps each optional operator to its
// ranking gain; one without an entry gains its runtime.
func PackSchedule(s *sched.Schedule, gains map[dataflow.OpID]float64) []dataflow.OpID {
	return pack(s, optionalOps(s.Graph), gains)
}

// pack is PackSchedule over the given build operators: knapsack.SolvePerSlot
// fills the idle runs in decreasing size order, and each run's chosen builds
// are placed back to back from its start in descending gain, so the least
// useful builds sit last in the slot and are the ones stopped if the
// estimates were off (§5.3.1).
func pack(s *sched.Schedule, builds []dataflow.OpID, gains map[dataflow.OpID]float64) []dataflow.OpID {
	gainOf := func(id int) float64 {
		if g, ok := gains[dataflow.OpID(id)]; ok {
			return g
		}
		return s.Graph.Op(dataflow.OpID(id)).Time
	}
	pool := make([]knapsack.Item, 0, len(builds))
	for _, id := range builds {
		if _, assigned := s.Assignment(id); !assigned {
			pool = append(pool, knapsack.Item{ID: int(id), Size: s.Graph.Op(id).Time, Gain: gainOf(int(id))})
		}
	}
	if len(pool) == 0 {
		return nil
	}
	runs := s.IdleRuns()
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Size() > runs[j].Size() })
	sizes := make([]float64, len(runs))
	for i, run := range runs {
		sizes[i] = run.Size()
	}

	var placed []dataflow.OpID
	for i, chosen := range knapsack.SolvePerSlot(sizes, pool).PerSlot {
		sort.SliceStable(chosen, func(a, b int) bool { return gainOf(chosen[a]) > gainOf(chosen[b]) })
		cursor := runs[i].Start
		for _, id := range chosen {
			op := dataflow.OpID(id)
			if _, err := s.PlaceAt(op, runs[i].Container, cursor); err != nil {
				continue // not expected: the knapsack sized the run
			}
			cursor += s.Graph.Op(op).Time
			placed = append(placed, op)
		}
	}
	return placed
}

func optionalOps(g *dataflow.Graph) []dataflow.OpID {
	var out []dataflow.OpID
	for i := range g.Len() {
		if id := dataflow.OpID(i); g.Op(id).Optional {
			out = append(out, id)
		}
	}
	return out
}

// Random is the baseline of §6: over skyline, the skyline of g's
// non-optional operators, it "randomly selects indexes from the potential
// set and randomly assigns them to containers to be built" — each build
// operator of g is appended to a random container of every schedule with no
// regard for the idle structure or the gains. Builds that land in the lease
// tail without room are stopped at quantum expiry by the executor; builds
// overlapping a dataflow operator's slot are preempted. That wasted work is
// what Table 7 charges the baseline for.
func Random(skyline []*sched.Schedule, g *dataflow.Graph, rng *rand.Rand) {
	for _, s := range skyline {
		builds := optionalOps(g)
		rng.Shuffle(len(builds), func(i, j int) { builds[i], builds[j] = builds[j], builds[i] })
		conts := s.NumSlots()
		if conts == 0 {
			break
		}
		for _, id := range builds {
			// A refused append leaves the build unscheduled.
			_, _ = s.Append(id, rng.Intn(conts))
		}
	}
}
