package check

import (
	"math"
	"sort"
	"testing"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/interleave"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
)

// The metamorphic suites check relations between runs instead of absolute
// values: transform the input in a way whose effect on the output is known
// exactly, and require precisely that effect.

// frontierPoints extracts each frontier member's sorted objective vector.
func frontierPoints(skyline []*sched.Schedule) [][2]float64 {
	pts := make([][2]float64, len(skyline))
	for i, s := range skyline {
		pts[i] = [2]float64{s.Makespan(), s.MoneyQuanta()}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i][0] != pts[j][0] {
			return pts[i][0] < pts[j][0]
		}
		return pts[i][1] < pts[j][1]
	})
	return pts
}

// TestMetamorphicPriceScaling: multiplying every price (VM, storage, and
// each type's per-quantum price) by k leaves all scheduling decisions and
// quanta-denominated objectives unchanged and scales dollar cost by
// exactly k.
func TestMetamorphicPriceScaling(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, k := range []float64{0.25, 3, 17.5} {
			sc := NewScenario(seed, 0)
			scaled := sc.Opts
			scaled.Pricing.VMPerQuantum *= k
			scaled.Pricing.StoragePerMBQuantum *= k
			if len(sc.Opts.Types) > 0 {
				scaled.Types = append([]cloud.VMType(nil), sc.Opts.Types...)
				for i := range scaled.Types {
					scaled.Types[i].PricePerQuantum *= k
				}
			}

			base := sched.NewSkyline(sc.Opts).Schedule(sc.Graph)
			scld := sched.NewSkyline(scaled).Schedule(sc.Graph)
			if len(base) != len(scld) {
				t.Fatalf("seed %d k=%g: frontier size changed %d -> %d", seed, k, len(base), len(scld))
			}
			bp, sp := frontierPoints(base), frontierPoints(scld)
			for i := range bp {
				if math.Abs(bp[i][0]-sp[i][0]) > 1e-9*math.Max(1, bp[i][0]) {
					t.Errorf("seed %d k=%g: makespan changed %g -> %g", seed, k, bp[i][0], sp[i][0])
				}
				if math.Abs(bp[i][1]-sp[i][1]) > 1e-9*math.Max(1, bp[i][1]) {
					t.Errorf("seed %d k=%g: quanta cost changed %g -> %g", seed, k, bp[i][1], sp[i][1])
				}
			}
		}
	}
}

// TestMetamorphicOperatorRelabeling: relabeling operator IDs must yield an
// isomorphic frontier — identical objective vectors — because nothing in
// the model depends on operator identity, only on structure. The list
// scheduler processes operators in FIFO-Kahn topological order, which is
// itself label-dependent, so the relabeling used here is the one that
// keeps the processing order fixed: insert operators in the original
// graph's topological order (a non-trivial permutation — generated edges
// run backward in ID space). Generated runtimes are continuous, so no
// other ID tie-break can fire.
func TestMetamorphicOperatorRelabeling(t *testing.T) {
	nontrivial := 0
	for seed := int64(1); seed <= 12; seed++ {
		sc := NewScenario(seed, 0)
		g := sc.Graph
		topo, err := g.TopoSort()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, old := range topo {
			if int(old) != i {
				nontrivial++
				break
			}
		}

		relabeled := dataflow.New()
		newID := make(map[dataflow.OpID]dataflow.OpID, len(topo))
		for _, old := range topo {
			newID[old] = relabeled.Add(*g.Op(old))
		}
		for _, old := range g.Ops() {
			for _, e := range g.Out(old) {
				if err := relabeled.Connect(newID[old], newID[e.To], e.Size); err != nil {
					t.Fatalf("seed %d: relabeled connect: %v", seed, err)
				}
			}
		}

		// The relabeling preserves the processing order by construction;
		// verify that before comparing frontiers, so a failure below means
		// a genuine label dependence rather than a reordered heuristic.
		rtopo, err := relabeled.TopoSort()
		if err != nil {
			t.Fatalf("seed %d: relabeled graph: %v", seed, err)
		}
		for i, old := range topo {
			if rtopo[i] != newID[old] {
				t.Fatalf("seed %d: relabeling changed the processing order at %d", seed, i)
			}
		}

		base := frontierPoints(sched.NewSkyline(sc.Opts).Schedule(g))
		relb := frontierPoints(sched.NewSkyline(sc.Opts).Schedule(relabeled))
		if len(base) != len(relb) {
			t.Fatalf("seed %d: frontier size changed %d -> %d under relabeling", seed, len(base), len(relb))
		}
		for i := range base {
			if math.Abs(base[i][0]-relb[i][0]) > 1e-9*math.Max(1, base[i][0]) ||
				math.Abs(base[i][1]-relb[i][1]) > 1e-9*math.Max(1, base[i][1]) {
				t.Errorf("seed %d member %d: (%g, %g) -> (%g, %g) under relabeling",
					seed, i, base[i][0], base[i][1], relb[i][0], relb[i][1])
			}
		}
	}
	if nontrivial == 0 {
		t.Fatal("every topological order was the identity; the relabeling tested nothing")
	}
}

// TestMetamorphicFaultRemoval: removing one fault event from a plan of
// performance faults (stragglers, storage errors) never worsens the
// realized makespan — those faults only inflate durations, and realized
// times are monotone in durations.
func TestMetamorphicFaultRemoval(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 20; seed++ {
		sc := NewScenario(seed, 0.15)
		var perf []fault.Event
		for _, e := range sc.Plan.Events {
			if e.Kind == fault.Straggler || e.Kind == fault.StorageError {
				perf = append(perf, e)
			}
		}
		if len(perf) == 0 {
			continue
		}
		skyline := sched.NewSkyline(sc.Opts).Schedule(sc.Graph)
		s := skyline[0]
		ex := sim.New(sim.Config{Pricing: sc.Opts.Pricing, Spec: sc.Opts.Spec})
		full := ex.Execute(nil, s, perf)
		for drop := range perf {
			reduced := make([]fault.Event, 0, len(perf)-1)
			reduced = append(reduced, perf[:drop]...)
			reduced = append(reduced, perf[drop+1:]...)
			res := ex.Execute(nil, s, reduced)
			if res.Makespan > full.Makespan+1e-9*math.Max(1, full.Makespan) {
				t.Errorf("seed %d: dropping event %d worsened makespan %g -> %g",
					seed, drop, full.Makespan, res.Makespan)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no performance-fault plans generated; raise the rate")
	}
}

// TestMetamorphicBuildPacking: packing optional index builds into a
// schedule's idle slots (Algorithm 2) never moves a mandatory operator and
// never changes makespan or cost — the §5.3 non-delaying guarantee — and
// the packed schedule still passes the full audit, planned and realized.
func TestMetamorphicBuildPacking(t *testing.T) {
	packedAny := false
	for seed := int64(1); seed <= 15; seed++ {
		sc := NewScenario(seed, 0)
		hasBuilds := false
		for _, id := range sc.Graph.Ops() {
			if sc.Graph.Op(id).Optional {
				hasBuilds = true
			}
		}
		if !hasBuilds {
			continue
		}
		skyline := sched.NewSkyline(sc.Opts).Schedule(sc.Graph)
		for i, s := range skyline {
			type key struct {
				c          int
				start, end float64
			}
			before := map[dataflow.OpID]key{}
			for _, a := range s.Assignments() {
				before[a.Op] = key{a.Container, a.Start, a.End}
			}
			wantMS, wantMQ := s.Makespan(), s.MoneyQuanta()

			placed := interleave.PackSchedule(s, nil)
			if len(placed) > 0 {
				packedAny = true
			}
			for _, a := range s.Assignments() {
				if sc.Graph.Op(a.Op).Optional {
					continue
				}
				b, ok := before[a.Op]
				if !ok || b != (key{a.Container, a.Start, a.End}) {
					t.Errorf("seed %d schedule %d: packing moved mandatory op %d", seed, i, a.Op)
				}
			}
			if got := s.Makespan(); math.Abs(got-wantMS) > 1e-9*math.Max(1, wantMS) {
				t.Errorf("seed %d schedule %d: packing changed makespan %g -> %g", seed, i, wantMS, got)
			}
			if got := s.MoneyQuanta(); math.Abs(got-wantMQ) > 1e-9*math.Max(1, wantMQ) {
				t.Errorf("seed %d schedule %d: packing changed cost %g -> %g", seed, i, wantMQ, got)
			}
			if err := AuditSchedule(s); err != nil {
				t.Errorf("seed %d schedule %d: packed schedule fails audit: %v", seed, i, err)
			}
			res := sim.Execute(s, sim.Config{Pricing: sc.Opts.Pricing, Spec: sc.Opts.Spec})
			if err := Audit(res, s, AuditConfig{Exact: true}); err != nil {
				t.Errorf("seed %d schedule %d: packed execution fails audit: %v", seed, i, err)
			}
		}
	}
	if !packedAny {
		t.Fatal("no scenario packed a build; generator idle slots too small")
	}
}
