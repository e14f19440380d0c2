package interleave

import (
	"math"
	"math/rand"
	"testing"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
	"idxflow/internal/sched"
)

func opts() sched.Options {
	return sched.Options{
		Pricing:       cloud.DefaultPricing(),
		Spec:          cloud.DefaultSpec(),
		MaxContainers: 10,
		MaxSkyline:    8,
	}
}

// flowWithBuilds returns a fan-out dataflow plus nBuilds optional build ops.
func flowWithBuilds(t *testing.T, nMid, nBuilds int, buildSec float64) *dataflow.Graph {
	t.Helper()
	g := dataflow.New()
	src := g.Add(dataflow.Operator{Name: "src", Time: 20})
	sink := g.Add(dataflow.Operator{Name: "sink", Time: 20})
	for i := 0; i < nMid; i++ {
		m := g.Add(dataflow.Operator{Name: "mid", Time: 25})
		if err := g.Connect(src, m, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(m, sink, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nBuilds; i++ {
		g.Add(dataflow.Operator{
			Name: "build", Kind: dataflow.KindBuildIndex,
			Time: buildSec, Optional: true, Priority: -1,
		})
	}
	return g
}

func TestLPInterleavePlacesBuilds(t *testing.T) {
	g := flowWithBuilds(t, 4, 5, 10)
	skyline := sched.NewSkyline(opts()).Schedule(g)
	placed := LP(skyline, g, nil)
	if len(skyline) == 0 {
		t.Fatal("empty skyline")
	}
	for _, s := range skyline {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	}
	// At least one schedule should have placed at least one build: the
	// fan-out forces idle time on the source/sink containers.
	best := 0
	for _, s := range skyline {
		placed := 0
		for _, id := range g.Ops() {
			if g.Op(id).Optional {
				if _, ok := s.Assignment(id); ok {
					placed++
				}
			}
		}
		if placed > best {
			best = placed
		}
	}
	if best == 0 {
		t.Error("LP interleaving placed no build operators")
	}
	if total := countPlaced(g, skyline); placed != total {
		t.Errorf("LP reports %d builds placed, the skyline carries %d", placed, total)
	}
}

func TestLPInterleaveDoesNotAffectDataflow(t *testing.T) {
	g := flowWithBuilds(t, 4, 6, 8)
	sk := sched.NewSkyline(opts())
	plain := sk.Schedule(g)
	packed := sk.Schedule(g)
	LP(packed, g, nil)
	if len(plain) != len(packed) {
		t.Fatalf("skyline sizes differ: %d vs %d", len(plain), len(packed))
	}
	for i := range plain {
		if math.Abs(plain[i].Makespan()-packed[i].Makespan()) > 1e-9 {
			t.Errorf("schedule %d: makespan changed %g -> %g", i, plain[i].Makespan(), packed[i].Makespan())
		}
		if math.Abs(plain[i].MoneyQuanta()-packed[i].MoneyQuanta()) > 1e-9 {
			t.Errorf("schedule %d: money changed %g -> %g", i, plain[i].MoneyQuanta(), packed[i].MoneyQuanta())
		}
	}
}

func TestLPPrefersHighGainBuilds(t *testing.T) {
	// One small slot, two builds of equal size but different gain: the
	// high-gain one must win.
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 55})
	hi := g.Add(dataflow.Operator{Name: "hi", Time: 5, Optional: true})
	lo := g.Add(dataflow.Operator{Name: "lo", Time: 5, Optional: true})
	_ = a
	o := opts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0) // busy [0,55], idle [55,60]
	placed := PackSchedule(s, map[dataflow.OpID]float64{hi: 10, lo: 1})
	if len(placed) != 1 || placed[0] != hi {
		t.Errorf("placed = %v, want [hi=%d]", placed, hi)
	}
}

func TestOnlineInterleave(t *testing.T) {
	g := flowWithBuilds(t, 4, 4, 10)
	skyline := sched.NewSkyline(opts()).ScheduleWithOptional(g)
	if len(skyline) == 0 {
		t.Fatal("empty skyline")
	}
	for _, s := range skyline {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	}
}

func TestLPSchedulesAtLeastAsManyAsOnline(t *testing.T) {
	// The headline observation of Fig. 8: LP schedules significantly more
	// build operators because it sees all the fragmentation up front.
	g := flowWithBuilds(t, 6, 10, 12)
	sk := sched.NewSkyline(opts())
	countMax := func(skyline []*sched.Schedule) int {
		best := 0
		for _, s := range skyline {
			n := 0
			for _, id := range g.Ops() {
				if g.Op(id).Optional {
					if _, ok := s.Assignment(id); ok {
						n++
					}
				}
			}
			if n > best {
				best = n
			}
		}
		return best
	}
	lp := sk.Schedule(g)
	LP(lp, g, nil)
	lpN := countMax(lp)
	onN := countMax(sk.ScheduleWithOptional(g))
	if lpN < onN {
		t.Errorf("LP placed %d builds, online placed %d; want LP >= online", lpN, onN)
	}
	if lpN == 0 {
		t.Error("LP placed nothing")
	}
}

func TestRandomInterleaveValid(t *testing.T) {
	g := flowWithBuilds(t, 4, 6, 10)
	skyline := sched.NewSkyline(opts()).Schedule(g)
	Random(skyline, g, rand.New(rand.NewSource(42)))
	for _, s := range skyline {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
		if math.IsInf(s.Makespan(), 0) {
			t.Error("broken makespan")
		}
	}
}

// countPlaced returns how many optional operators of g the skyline's
// schedules place in total.
func countPlaced(g *dataflow.Graph, skyline []*sched.Schedule) int {
	n := 0
	for _, s := range skyline {
		for _, a := range s.Assignments() {
			if g.Op(a.Op).Optional {
				n++
			}
		}
	}
	return n
}
