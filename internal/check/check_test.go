package check

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"idxflow/internal/bptree"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/gain"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
)

// execScenario schedules a scenario with the skyline scheduler and replays
// every frontier member through the executor, returning the realized
// results paired with their plans.
func execScenario(t *testing.T, sc Scenario) ([]sim.Result, []*sched.Schedule) {
	t.Helper()
	skyline := sched.NewSkyline(sc.Opts).Schedule(sc.Graph)
	if len(skyline) == 0 {
		t.Fatalf("seed %d: empty skyline", sc.Seed)
	}
	results := make([]sim.Result, len(skyline))
	for i, s := range skyline {
		results[i] = sim.New(sim.Config{Pricing: sc.Opts.Pricing, Spec: sc.Opts.Spec}).Execute(nil, s, sc.Plan.From(0))
	}
	return results, skyline
}

func TestGeneratorsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a := Graph(Layered, DefaultGraphConfig(), seed)
		b := Graph(Layered, DefaultGraphConfig(), seed)
		if a.DOT("g") != b.DOT("g") {
			t.Fatalf("seed %d: layered graphs differ between runs", seed)
		}
		c := Graph(RandomOrder, DefaultGraphConfig(), seed)
		d := Graph(RandomOrder, DefaultGraphConfig(), seed)
		if c.DOT("g") != d.DOT("g") {
			t.Fatalf("seed %d: random-order graphs differ between runs", seed)
		}
		if p1, p2 := Pricing(seed), Pricing(seed); p1 != p2 {
			t.Fatalf("seed %d: pricing differs: %+v vs %+v", seed, p1, p2)
		}
		f1 := fault.Generate(0.05, 60, 3600, seed)
		f2 := fault.Generate(0.05, 60, 3600, seed)
		if len(f1.Events) != len(f2.Events) {
			t.Fatalf("seed %d: fault plans differ in length", seed)
		}
		for i := range f1.Events {
			if f1.Events[i] != f2.Events[i] {
				t.Fatalf("seed %d: fault event %d differs", seed, i)
			}
		}
	}
}

func TestGeneratedGraphsValid(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		for _, shape := range []Shape{Layered, RandomOrder} {
			cfg := GraphConfig{
				Ops:      1 + int(seed%17),
				Layers:   1 + int(seed%5),
				EdgeProb: float64(seed%10) / 10,
				Builds:   int(seed % 4),
			}
			g := Graph(shape, cfg, seed)
			if err := g.Validate(); err != nil {
				t.Fatalf("shape %d seed %d: invalid graph: %v", shape, seed, err)
			}
			if _, err := g.TopoSort(); err != nil {
				t.Fatalf("shape %d seed %d: no topological order: %v", shape, seed, err)
			}
			flows, builds := 0, 0
			for _, id := range g.Ops() {
				if g.Op(id).Optional {
					builds++
				} else {
					flows++
				}
			}
			if wantOps := cfg.normalized().Ops; flows != wantOps {
				t.Fatalf("shape %d seed %d: %d flow ops, want %d", shape, seed, flows, wantOps)
			}
			if builds != cfg.Builds {
				t.Fatalf("shape %d seed %d: %d builds, want %d", shape, seed, builds, cfg.Builds)
			}
		}
	}
}

func TestScenarioDeterministic(t *testing.T) {
	a := NewScenario(42, 0.1)
	b := NewScenario(42, 0.1)
	if a.Graph.DOT("g") != b.Graph.DOT("g") {
		t.Fatal("scenario graphs differ for the same seed")
	}
	if a.Opts.MaxContainers != b.Opts.MaxContainers || a.Opts.Pricing != b.Opts.Pricing {
		t.Fatal("scenario options differ for the same seed")
	}
	if len(a.Plan.Events) != len(b.Plan.Events) {
		t.Fatal("scenario fault plans differ for the same seed")
	}
}

// TestAuditCleanExecutions drives generated fault-free scenarios through
// the scheduler and executor and requires a clean audit in Exact mode:
// the planned schedule, its frontier, and the replay all satisfy the
// invariant catalog.
func TestAuditCleanExecutions(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		sc := NewScenario(seed, 0)
		results, skyline := execScenario(t, sc)
		if err := AuditFrontier(skyline); err != nil {
			t.Errorf("seed %d: frontier audit: %v", seed, err)
		}
		for i := range results {
			err := Audit(results[i], skyline[i], AuditConfig{Exact: true})
			if err != nil {
				t.Errorf("seed %d schedule %d: %v", seed, i, err)
			}
		}
	}
}

// TestAuditFaultyExecutions replays generated scenarios under their fault
// plans; the realized executions must still satisfy every invariant the
// auditor can check without exactness (lease integrality, money bounds,
// causality, fault conservation, dead containers vacated).
func TestAuditFaultyExecutions(t *testing.T) {
	audited := 0
	for seed := int64(1); seed <= 25; seed++ {
		sc := NewScenario(seed, 0.08)
		if len(sc.Plan.Events) == 0 {
			continue
		}
		results, skyline := execScenario(t, sc)
		for i := range results {
			err := Audit(results[i], skyline[i], AuditConfig{Faults: sc.Plan.Events})
			if err != nil {
				t.Errorf("seed %d schedule %d: %v", seed, i, err)
			}
			audited++
		}
	}
	if audited == 0 {
		t.Fatal("no faulty scenario produced events; raise the rate")
	}
}

// TestAuditCatchesMutations is the self-test of the acceptance criteria: a
// deliberately broken result — an off-by-one quantum charge, a causality
// violation, a double booking — must be rejected, with the named invariant
// in the error.
func TestAuditCatchesMutations(t *testing.T) {
	sc := NewScenario(7, 0)
	results, skyline := execScenario(t, sc)
	s := skyline[0]
	base := results[0]
	if err := Audit(base, s, AuditConfig{Exact: true}); err != nil {
		t.Fatalf("baseline not clean: %v", err)
	}
	someOp := func(res sim.Result) dataflow.OpID {
		for _, a := range s.Assignments() {
			if !s.Graph.Op(a.Op).Optional {
				return a.Op
			}
		}
		t.Fatal("no mandatory op")
		return 0
	}

	cases := []struct {
		name    string
		invName string
		mutate  func(res *sim.Result)
	}{
		{"off-by-one quantum charge", "money", func(res *sim.Result) {
			res.MoneyQuanta++
		}},
		{"undercharged lease", "money", func(res *sim.Result) {
			res.MoneyQuanta--
		}},
		{"fragmentation breaks quantum integrality", "quantum-integrality", func(res *sim.Result) {
			res.Fragmentation += sc.Opts.Pricing.QuantumSeconds / 3
		}},
		{"negative fragmentation", "fragmentation-sign", func(res *sim.Result) {
			res.Fragmentation = -1
		}},
		{"inflated makespan", "makespan-identity", func(res *sim.Result) {
			res.Makespan *= 1.5
		}},
		{"op started before its inputs", "causality", func(res *sim.Result) {
			id := someOp(*res)
			var victim dataflow.OpID
			found := false
			for _, a := range s.Assignments() {
				if len(s.Graph.In(a.Op)) > 0 && !s.Graph.Op(a.Op).Optional {
					victim, found = a.Op, true
					break
				}
			}
			if !found {
				victim = id
			}
			or := res.Ops[victim]
			or.Start = -0.5
			res.Ops[victim] = or
		}},
		{"mandatory op marked incomplete", "flag-coherence", func(res *sim.Result) {
			id := someOp(*res)
			or := res.Ops[id]
			or.Completed = false
			res.Ops[id] = or
		}},
		{"table longer than the graph", "result-domain", func(res *sim.Result) {
			res.Ops = append(res.Ops, sim.OpResult{Completed: true})
		}},
		{"phantom fault traffic", "fault-conservation", func(res *sim.Result) {
			res.FaultsInjected = 3
		}},
		{"drifted replay", "exact-replay", func(res *sim.Result) {
			id := someOp(*res)
			or := res.Ops[id]
			or.Start += 1e-3
			or.End += 1e-3
			res.Ops[id] = or
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := base
			mut.Ops = slices.Clone(base.Ops)
			tc.mutate(&mut)
			err := Audit(mut, s, AuditConfig{Exact: true})
			if err == nil {
				t.Fatalf("auditor accepted mutation %q", tc.name)
			}
			if !strings.Contains(err.Error(), tc.invName) {
				t.Fatalf("mutation %q flagged, but not by %q:\n%v", tc.name, tc.invName, err)
			}
		})
	}
}

// TestAuditCatchesOverlap plants two assignments on one container at the
// same time and checks the realized overlap is caught.
func TestAuditCatchesOverlap(t *testing.T) {
	sc := NewScenario(7, 0)
	results, skyline := execScenario(t, sc)
	mut := results[0]
	mut.Ops = slices.Clone(results[0].Ops)
	moved := false
	var c int
	var until float64
	for id, or := range mut.Ops {
		if !or.Ran() {
			continue
		}
		if !moved {
			c, until, moved = or.Container, or.End, true
			continue
		}
		if or.Container != c {
			or.Container = c
			or.End = until - (or.End - or.Start)
			or.Start = until - 2*(until-or.Start)
			mut.Ops[id] = or
			break
		}
	}
	if !moved {
		t.Skip("scenario too small to overlap")
	}
	err := Audit(mut, skyline[0], AuditConfig{})
	if err == nil || !strings.Contains(err.Error(), "no-double-booking") {
		t.Fatalf("overlap not caught: %v", err)
	}
}

func TestAuditGainModel(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		p := gain.Params{
			Alpha:   0.5,
			FadeD:   1 + float64(seed%4),
			WindowW: float64(seed % 6), // includes 0 = unwindowed
		}
		pricing := Pricing(seed)
		e := gain.NewEvaluator(p, pricing)
		cands := CostGrid(8, seed+50)
		horizon := 40 * pricing.QuantumSeconds
		for _, c := range cands {
			for _, rec := range UpdateStream(12, horizon, seed+int64(len(c.Name))) {
				e.History.Add(c.Name, rec)
			}
		}
		if err := AuditGain(e, cands, horizon/2); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestAuditTree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, order := range []int{4, 5, 8, 33} {
		keys, vals := make([]int64, 2000), make([]int64, 2000)
		for i := range keys {
			keys[i], vals[i] = int64(rng.Intn(500)), int64(i)
		}
		slices.Sort(keys) // the audit reads the tree's shape, not which value a key holds
		tr, err := bptree.BulkLoadSorted(order, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		if err := AuditTree(tr); err != nil {
			t.Errorf("order %d: %v", order, err)
		}
	}
}
