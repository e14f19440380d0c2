// Package interleave implements the two index-interleaving algorithms of
// §5.3 of the paper: the linear-program based interleaving algorithm
// (Algorithm 2, packing index-build operators into the idle slots of an
// already-computed dataflow schedule with the knapsack solver of Algorithm
// 3) and the online interleaving algorithm (scheduling build operators as
// optional operators inside the skyline scheduler, §5.3.2), plus the random
// baseline of §6.
package interleave

import (
	"math/rand"
	"sort"

	"idxflow/internal/dataflow"
	"idxflow/internal/knapsack"
	"idxflow/internal/provenance"
	"idxflow/internal/sched"
	"idxflow/internal/telemetry"
)

// instruments is the package's one instrument, embedded by the algorithms
// that report to it. The zero value is a no-op.
type instruments struct{ placed *telemetry.Counter }

// Instrument binds the placement counter in reg.
func (i *instruments) Instrument(reg *telemetry.Registry) {
	i.placed = reg.Counter("idxflow_interleave_build_ops_placed_total",
		"Index-build operators packed into idle slots across skyline schedules.")
}

// report counts the placements and emits the per-submission placement
// summary event to rec, attributed through the scheduler's cell: how many
// of the offered build operators found idle-slot homes across the skyline
// (§5.3). Called once, after every schedule has been packed, on the pass's
// own goroutine.
func (i *instruments) report(rec *provenance.Recorder, sk *sched.Skyline, offered, placed, schedules int) {
	i.placed.Add(float64(placed))
	if !rec.Active() {
		return
	}
	at := sk.Opts.At.Get()
	rec.Append(provenance.Event{
		Kind:       provenance.KindInterleaved,
		Flow:       at.Flow,
		T:          at.T,
		Count:      placed,
		Records:    offered,
		Containers: schedules,
	})
}

// LP is the linear-program based interleaving algorithm (Algorithm 2).
type LP struct {
	Scheduler *sched.Skyline
	// Provenance, when active, receives the per-submission placement summary.
	Provenance *provenance.Recorder
	instruments
}

// Interleave schedules the non-optional operators of g with the skyline
// scheduler and then, for every schedule in the skyline, packs the optional
// (index-build) operators of g into its idle slots: slots are processed in
// decreasing size order and a knapsack is solved per slot over the
// remaining build-operator pool (lines 7-17 of Algorithm 2). gains maps
// each optional operator to its ranking gain; operators without an entry
// get gain equal to their runtime. The returned skyline contains schedules
// of both dataflow and build operators.
func (l *LP) Interleave(g *dataflow.Graph, gains map[dataflow.OpID]float64) []*sched.Schedule {
	span := l.Scheduler.Opts.Tracer.StartSpan("interleave.lp")
	if id := l.Scheduler.Opts.At.Get().Flow; id != 0 {
		span.SetAttr("flow_id", uint64(id))
	}
	defer span.End()
	skyline := l.Scheduler.Schedule(g)
	builds := optionalOps(g)
	placed := 0
	for _, sc := range skyline {
		placed += len(packInto(sc, builds, gains))
	}
	l.report(l.Provenance, l.Scheduler, len(builds), placed, len(skyline))
	span.SetAttr("schedules", len(skyline)).SetAttr("builds_offered", len(builds)).SetAttr("builds_placed", placed)
	return skyline
}

// PackSchedule packs the optional operators of the schedule's graph into
// the idle slots of an existing schedule (the per-schedule inner loop of
// Algorithm 2). It returns the operators that were placed.
func PackSchedule(s *sched.Schedule, gains map[dataflow.OpID]float64) []dataflow.OpID {
	return packInto(s, optionalOps(s.Graph), gains)
}

func optionalOps(g *dataflow.Graph) []dataflow.OpID {
	var out []dataflow.OpID
	for _, id := range g.Ops() {
		if g.Op(id).Optional {
			out = append(out, id)
		}
	}
	return out
}

func packInto(s *sched.Schedule, builds []dataflow.OpID, gains map[dataflow.OpID]float64) []dataflow.OpID {
	// Pool of unplaced build items.
	pool := make([]knapsack.Item, 0, len(builds))
	byID := make(map[int]dataflow.OpID, len(builds))
	for _, id := range builds {
		if _, assigned := s.Assignment(id); assigned {
			continue
		}
		op := s.Graph.Op(id)
		gainV, ok := gains[id]
		if !ok {
			gainV = op.Time
		}
		it := knapsack.Item{ID: int(id), Size: op.Time, Gain: gainV}
		pool = append(pool, it)
		byID[int(id)] = id
	}

	runs := s.IdleRuns()
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Size() > runs[j].Size() })

	var placed []dataflow.OpID
	for _, run := range runs {
		if len(pool) == 0 {
			break
		}
		sol := knapsack.Solve(run.Size(), pool)
		if len(sol.Chosen) == 0 {
			continue
		}
		// Order the chosen ops by descending gain so the least useful
		// builds sit last in the slot and are the ones stopped if the
		// estimates were off (§5.3.1).
		chosen := make([]knapsack.Item, 0, len(sol.Chosen))
		chosenSet := make(map[int]bool, len(sol.Chosen))
		for _, cid := range sol.Chosen {
			chosenSet[cid] = true
			for _, it := range pool {
				if it.ID == cid {
					chosen = append(chosen, it)
					break
				}
			}
		}
		sort.SliceStable(chosen, func(i, j int) bool { return chosen[i].Gain > chosen[j].Gain })

		cursor := run.Start
		for _, it := range chosen {
			id := byID[it.ID]
			if _, err := s.PlaceAt(id, run.Container, cursor); err != nil {
				// Should not happen: the slot was sized by the knapsack.
				continue
			}
			cursor += it.Size
			placed = append(placed, id)
		}
		next := pool[:0]
		for _, it := range pool {
			if !chosenSet[it.ID] {
				next = append(next, it)
			}
		}
		pool = next
	}
	return placed
}

// Online is the online interleaving algorithm of §5.3.2: optional
// index-build operators are scheduled together with the dataflow operators
// by the modified skyline scheduler.
type Online struct {
	Scheduler *sched.Skyline
	// Provenance, when active, receives the per-submission placement summary.
	Provenance *provenance.Recorder
	instruments
}

// Interleave computes the skyline over both dataflow and optional
// operators. The gains argument is accepted for interface symmetry with LP
// but is unused: the online algorithm decides placements purely by the
// skyline dominance rules.
func (o *Online) Interleave(g *dataflow.Graph, _ map[dataflow.OpID]float64) []*sched.Schedule {
	span := o.Scheduler.Opts.Tracer.StartSpan("interleave.online")
	if id := o.Scheduler.Opts.At.Get().Flow; id != 0 {
		span.SetAttr("flow_id", uint64(id))
	}
	defer span.End()
	skyline := o.Scheduler.ScheduleWithOptional(g)
	placed := 0
	for _, s := range skyline {
		for _, a := range s.Assignments() {
			if g.Op(a.Op).Optional {
				placed++
			}
		}
	}
	o.report(o.Provenance, o.Scheduler, len(optionalOps(g)), placed, len(skyline))
	span.SetAttr("schedules", len(skyline)).SetAttr("builds_placed", placed)
	return skyline
}

// Interleaver is the common interface of the LP and online algorithms.
type Interleaver interface {
	Interleave(g *dataflow.Graph, gains map[dataflow.OpID]float64) []*sched.Schedule
}

// Random is the baseline of §6: it schedules the dataflow, then "randomly
// selects indexes from the potential set and randomly assigns them to
// containers to be built" — each selected build operator is appended to a
// random container with no regard for the idle structure or the gains.
// Builds that land in the lease tail without room are stopped at quantum
// expiry by the executor; builds overlapping a dataflow operator's slot are
// preempted. That wasted work is what Table 7 charges the baseline for.
type Random struct {
	Scheduler *sched.Skyline
	Rng       *rand.Rand
}

// Interleave implements Interleaver.
func (r *Random) Interleave(g *dataflow.Graph, _ map[dataflow.OpID]float64) []*sched.Schedule {
	skyline := r.Scheduler.Schedule(g)
	for _, s := range skyline {
		builds := optionalOps(g)
		r.Rng.Shuffle(len(builds), func(i, j int) { builds[i], builds[j] = builds[j], builds[i] })
		conts := s.NumSlots()
		if conts == 0 {
			break
		}
		for _, id := range builds {
			if _, err := s.Append(id, r.Rng.Intn(conts)); err != nil {
				continue
			}
		}
	}
	return skyline
}
