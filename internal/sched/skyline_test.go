package sched

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"idxflow/internal/dataflow"
)

// fanout builds a 1 -> N -> 1 diamond with given op time and edge size.
func fanout(t *testing.T, n int, opTime, edgeMB float64) *dataflow.Graph {
	t.Helper()
	g := dataflow.New()
	src := g.Add(dataflow.Operator{Name: "src", Time: opTime})
	sink := g.Add(dataflow.Operator{Name: "sink", Time: opTime})
	for i := 0; i < n; i++ {
		m := g.Add(dataflow.Operator{Name: "mid", Time: opTime})
		if err := g.Connect(src, m, edgeMB); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(m, sink, edgeMB); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestSkylineSchedulesAllOps(t *testing.T) {
	g := fanout(t, 6, 10, 1)
	sky := NewSkyline(testOpts()).Schedule(g)
	if len(sky) == 0 {
		t.Fatal("empty skyline")
	}
	for _, s := range sky {
		if s.Assigned() != g.Len() {
			t.Errorf("schedule has %d ops, want %d", s.Assigned(), g.Len())
		}
		if err := s.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	}
}

func TestSkylineIsPareto(t *testing.T) {
	g := fanout(t, 8, 15, 2)
	sky := NewSkyline(testOpts()).Schedule(g)
	for i, a := range sky {
		for j, b := range sky {
			if i == j {
				continue
			}
			pa := point{time: a.Makespan(), money: a.MoneyQuanta()}
			pb := point{time: b.Makespan(), money: b.MoneyQuanta()}
			noWorse := pa.time <= pb.time+eps && pa.money <= pb.money+eps
			if noWorse && (pa.time < pb.time-eps || pa.money < pb.money-eps) {
				t.Errorf("schedule %d (t=%g,m=%g) dominates %d (t=%g,m=%g)",
					i, pa.time, pa.money, j, pb.time, pb.money)
			}
		}
	}
}

// independentOps builds n unconnected 30 s operators.
func independentOps(n int) *dataflow.Graph {
	g := dataflow.New()
	for i := 0; i < n; i++ {
		g.Add(dataflow.Operator{Name: "op", Time: 30})
	}
	return g
}

func TestSkylineSpreadsIndependentOps(t *testing.T) {
	// 8 independent 30s ops: on one container 240s (4 quanta), on 8
	// containers 30s. The skyline must contain a schedule faster than
	// serial and one no dearer than serial.
	g := independentOps(8)
	sky := NewSkyline(testOpts()).Schedule(g)
	if fast := Fastest(sky); fast.Makespan() > 60+1e-9 {
		t.Errorf("fastest makespan = %g, want <= 60 (parallel)", fast.Makespan())
	}
	least := math.Inf(1)
	for _, s := range sky {
		least = math.Min(least, s.MoneyQuanta())
	}
	if least > 4+1e-9 {
		t.Errorf("cheapest money = %g quanta, want <= 4 (serial)", least)
	}
}

func TestSkylineRespectsMaxContainers(t *testing.T) {
	g := independentOps(10)
	opts := testOpts()
	opts.MaxContainers = 2
	sky := NewSkyline(opts).Schedule(g)
	for _, s := range sky {
		if s.Containers() > 2 {
			t.Errorf("schedule uses %d containers, max 2", s.Containers())
		}
	}
}

func TestSkylineMaxSkylineCap(t *testing.T) {
	g := fanout(t, 10, 20, 1)
	opts := testOpts()
	opts.MaxSkyline = 3
	sky := NewSkyline(opts).Schedule(g)
	if len(sky) > 3 {
		t.Errorf("skyline size %d exceeds cap 3", len(sky))
	}

	// A cap of one keeps the fastest point of every iteration (prune used
	// to divide by max-1 and index out of range).
	g = independentOps(8)
	opts.MaxSkyline = 1
	sky = NewSkyline(opts).Schedule(g)
	if len(sky) != 1 {
		t.Fatalf("skyline size %d under cap 1, want 1", len(sky))
	}
	if sky[0].Assigned() != 8 {
		t.Errorf("capped schedule holds %d ops, want 8", sky[0].Assigned())
	}
	if err := sky[0].Validate(); err != nil {
		t.Errorf("capped schedule invalid: %v", err)
	}
	opts.MaxSkyline = 0
	if want := Fastest(NewSkyline(opts).Schedule(g)).Makespan(); sky[0].Makespan() > want+1e-9 {
		t.Errorf("cap 1 makespan %g, uncapped fastest %g", sky[0].Makespan(), want)
	}
}

func TestScheduleWithOptionalNeverHurts(t *testing.T) {
	g := fanout(t, 4, 20, 1)
	// Add optional build ops of varying sizes.
	for i := 0; i < 6; i++ {
		g.Add(dataflow.Operator{
			Name:     "build",
			Time:     float64(5 + i*7),
			Optional: true,
			Priority: -1,
		})
	}
	sk := NewSkyline(testOpts())
	plain := sk.Schedule(g)
	withOpt := sk.ScheduleWithOptional(g)
	if len(withOpt) == 0 {
		t.Fatal("empty skyline with optional ops")
	}
	// The two skylines may legitimately differ — the paper observes that
	// "the online algorithm interferes with the scheduling of the dataflow
	// operators" (§6.4) — but every schedule must stay valid, and the
	// optional run must not lose ground at the fast end of the frontier
	// beyond what exploring different paths explains: its fastest schedule
	// must be within the span of the plain frontier.
	for _, s := range withOpt {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	}
	fastOpt := Fastest(withOpt).Makespan()
	slowestPlain := 0.0
	for _, p := range plain {
		if p.Makespan() > slowestPlain {
			slowestPlain = p.Makespan()
		}
	}
	if fastOpt > slowestPlain+1e-6 {
		t.Errorf("fastest optional schedule (t=%g) slower than the entire plain frontier (max t=%g)",
			fastOpt, slowestPlain)
	}
	// At least one schedule should carry at least one optional op (the
	// fan-out leaves idle slots).
	any := false
	for _, s := range withOpt {
		if s.Assigned() > g.Len()-6 {
			any = true
		}
	}
	if !any {
		t.Error("no optional op was scheduled anywhere")
	}
}

func TestOnlineLoadBalance(t *testing.T) {
	g := fanout(t, 6, 10, 1)
	s := OnlineLoadBalance(g, testOpts())
	if s == nil {
		t.Fatal("nil schedule")
	}
	if s.Assigned() != g.Len() {
		t.Errorf("assigned %d ops, want %d", s.Assigned(), g.Len())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Load balance spreads the 6 independent mid ops across containers.
	if s.Containers() < 3 {
		t.Errorf("only %d containers used, want spreading", s.Containers())
	}
}

func TestOnlineLoadBalanceSkipsOptional(t *testing.T) {
	g := dataflow.New()
	g.Add(dataflow.Operator{Name: "a", Time: 10})
	g.Add(dataflow.Operator{Name: "build", Time: 10, Optional: true})
	s := OnlineLoadBalance(g, testOpts())
	if s.Assigned() != 1 {
		t.Errorf("assigned %d ops, want 1 (optional skipped)", s.Assigned())
	}
}

// TestSkylineValidProperty: random DAGs always yield valid Pareto frontiers.
func TestSkylineValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := dataflow.New()
		n := 4 + rng.Intn(12)
		ids := make([]dataflow.OpID, n)
		for i := 0; i < n; i++ {
			ids[i] = g.Add(dataflow.Operator{Name: "op", Time: 1 + rng.Float64()*60})
		}
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.25 {
					if err := g.Connect(ids[j], ids[i], rng.Float64()*50); err != nil {
						return false
					}
				}
			}
		}
		sky := NewSkyline(testOpts()).Schedule(g)
		if len(sky) == 0 {
			return false
		}
		for _, s := range sky {
			if s.Assigned() != n {
				return false
			}
			if err := s.Validate(); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			// Makespan >= critical path (with zero-cost transfers this
			// would be equality-bound; transfers only add).
			if s.Makespan() < g.CriticalPath()-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
