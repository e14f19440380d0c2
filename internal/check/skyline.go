package check

import (
	"fmt"
	"math"

	"idxflow/internal/dataflow"
	"idxflow/internal/sched"
)

// SkylineReference is Alg. 4 with none of the scheduler's shortcuts: the
// oracle a skyline frontier is held to member by member (DiffFrontiers).
// Each step, in the scheduler's step order, makes every candidate on a
// Clone of its source with Append, AppendAs or PlaceAt and reads its
// objectives from the copy; the Pareto pass sorts every candidate by
// insertion and walks them all; and the §5.3.1 tie-break is read from
// IdleSlots alone (refSeqIdle), never from a schedule's books. Only tests
// call it; it is not in a _test.go file because internal/sched's external
// tests call it too.
func SkylineReference(g *dataflow.Graph, opts sched.Options, withOptional bool) []*sched.Schedule {
	if opts.MaxContainers <= 0 {
		opts.MaxContainers = 1
	}
	order, err := refSteps(g, withOptional)
	if err != nil {
		return nil
	}
	base := sched.NewSchedule(g, opts.Pricing, opts.Spec)
	base.Types = opts.Types
	sky := []*sched.Schedule{base}
	for _, id := range order {
		var cands []refCand
		add := func(s *sched.Schedule, err error) {
			if err == nil {
				cands = append(cands, refCand{s: s, time: s.Makespan(), money: s.MoneyQuanta(),
					ops: s.Assigned(), conts: s.Containers(), seqIdle: refSeqIdle(s)})
			}
		}
		if g.Op(id).Optional {
			// The frontier is kept (§5.3.2), and a build is tried at the
			// start of every idle run long enough for it.
			for _, s := range sky {
				add(s, nil)
			}
			need := g.Op(id).Time
			for _, src := range sky {
				for _, r := range src.IdleRuns() {
					if r.Size() < need-1e-9 {
						continue
					}
					s := src.Clone()
					_, err := s.PlaceAt(id, r.Container, r.Start)
					add(s, err)
				}
			}
		} else {
			// Every used container and one fresh one, leased as each type
			// of the pool.
			types := len(opts.Types)
			for _, src := range sky {
				used := src.NumSlots()
				for c := 0; c < min(used+1, opts.MaxContainers); c++ {
					nTypes := 1
					if c >= used && types > 1 {
						nTypes = types
					}
					for ti := 0; ti < nTypes; ti++ {
						s := src.Clone()
						var err error
						if c >= used && types > 0 {
							_, err = s.AppendAs(id, c, ti)
						} else {
							_, err = s.Append(id, c)
						}
						add(s, err)
					}
				}
			}
		}
		if len(cands) == 0 {
			return nil
		}
		sky = refPrune(refPareto(cands, withOptional), opts.MaxSkyline)
	}
	return sky
}

// refSteps is the scheduler's step order: the dataflow operators in
// topological order, and with optional operators the builds spread evenly
// among them, each considered once.
func refSteps(g *dataflow.Graph, withOptional bool) ([]dataflow.OpID, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	var flow, builds, order []dataflow.OpID
	for _, id := range topo {
		if g.Op(id).Optional {
			builds = append(builds, id)
		} else {
			flow = append(flow, id)
		}
	}
	if !withOptional {
		return flow, nil
	}
	if len(builds) == 0 || len(flow) == 0 {
		return append(flow, builds...), nil
	}
	perFlow := float64(len(builds)) / float64(len(flow))
	acc, bi := 0.0, 0
	for _, id := range flow {
		order = append(order, id)
		for acc += perFlow; acc >= 1 && bi < len(builds); acc-- {
			order = append(order, builds[bi])
			bi++
		}
	}
	return append(order, builds[bi:]...), nil
}

// refCand is one candidate schedule and what the Pareto pass reads of it.
type refCand struct {
	s           *sched.Schedule
	time, money float64
	ops, conts  int
	seqIdle     float64
}

// refSeqIdle is the §5.3.1 tie-break from IdleSlots alone: the pieces, in
// slot order, fold into runs, a piece starting within 1e-9 of where the
// previous one on its container ended extending the run, and the longest
// run wins. Runs are summed piece by piece, as the scheduler sums them.
func refSeqIdle(s *sched.Schedule) float64 {
	var best, run float64
	prev := sched.Slot{Container: -1}
	for _, sl := range s.IdleSlots() {
		if sl.Container == prev.Container && math.Abs(prev.End-sl.Start) < 1e-9 {
			run += sl.Size()
		} else {
			run = sl.Size()
		}
		if run > best {
			best = run
		}
		prev = sl
	}
	return best
}

// refPareto is the Pareto pass over every candidate: an insertion sort by
// time, then money, then generation order, and a walk in that order. A
// candidate within 1e-9 of the last survivor on both objectives folds into
// it by the tie-breaks, one no cheaper than the cheapest survivor so far by
// more than 1e-9 is dominated, and any other joins the frontier. Among
// equal candidates, with optional operators more operators win (§5.3.2),
// then the most sequential idle time (§5.3.1), then fewer containers, then
// fewer operators.
func refPareto(cands []refCand, withOptional bool) []refCand {
	prefer := func(a, b *refCand) bool {
		switch {
		case withOptional && a.ops != b.ops:
			return a.ops > b.ops
		case a.seqIdle != b.seqIdle:
			return a.seqIdle > b.seqIdle
		case a.conts != b.conts:
			return a.conts < b.conts
		}
		return a.ops < b.ops
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := &cands[j], &cands[j-1]
			if a.time > b.time || a.time == b.time && a.money >= b.money {
				break
			}
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	var out []refCand
	bestMoney := math.Inf(1)
	for i := range cands {
		c := &cands[i]
		if n := len(out); n > 0 && math.Abs(out[n-1].time-c.time) <= 1e-9 && math.Abs(out[n-1].money-c.money) <= 1e-9 {
			if prefer(c, &out[n-1]) {
				out[n-1] = *c
			}
			continue
		}
		if c.money >= bestMoney-1e-9 {
			continue
		}
		out = append(out, *c)
		bestMoney = c.money
	}
	return out
}

// refPrune caps the frontier at max members (0: no cap), keeping both ends
// and evenly spaced interior points; a cap of one keeps the fastest.
func refPrune(cands []refCand, max int) []*sched.Schedule {
	var idx []int
	switch {
	case max <= 0 || len(cands) <= max:
		for i := range cands {
			idx = append(idx, i)
		}
	case max == 1:
		idx = []int{0}
	default:
		step := float64(len(cands)-1) / float64(max-1)
		for i := 0; i < max; i++ {
			if k := int(math.Round(float64(i) * step)); len(idx) == 0 || idx[len(idx)-1] != k {
				idx = append(idx, k)
			}
		}
	}
	out := make([]*sched.Schedule, len(idx))
	for i, k := range idx {
		out[i] = cands[k].s
	}
	return out
}

// DiffFrontiers returns nil when got and want are the same frontier member
// by member, and otherwise an error naming the first difference: the
// member count, a member's makespan or money bits, its container types, or
// an assignment's container or interval bits.
func DiffFrontiers(got, want []*sched.Schedule) error {
	if len(got) != len(want) {
		return fmt.Errorf("frontier has %d members, want %d", len(got), len(want))
	}
	bits := math.Float64bits
	for i, g := range got {
		w := want[i]
		if bits(g.Makespan()) != bits(w.Makespan()) || bits(g.MoneyQuanta()) != bits(w.MoneyQuanta()) {
			return fmt.Errorf("member %d: (time, money) = (%v, %v), want (%v, %v)",
				i, g.Makespan(), g.MoneyQuanta(), w.Makespan(), w.MoneyQuanta())
		}
		if g.NumSlots() != w.NumSlots() {
			return fmt.Errorf("member %d: %d containers, want %d", i, g.NumSlots(), w.NumSlots())
		}
		for c := 0; c < g.NumSlots(); c++ {
			if gt, wt := g.ContainerType(c).Name, w.ContainerType(c).Name; gt != wt {
				return fmt.Errorf("member %d: container %d is a %s, want a %s", i, c, gt, wt)
			}
		}
		ga, wa := g.Assignments(), w.Assignments()
		if len(ga) != len(wa) {
			return fmt.Errorf("member %d: %d assignments, want %d", i, len(ga), len(wa))
		}
		for k := range ga {
			a, b := ga[k], wa[k]
			if a.Op != b.Op || a.Container != b.Container || bits(a.Start) != bits(b.Start) || bits(a.End) != bits(b.End) {
				return fmt.Errorf("member %d: assignment %+v, want %+v", i, a, b)
			}
		}
	}
	return nil
}
