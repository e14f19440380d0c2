package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/interleave"
	"idxflow/internal/provenance"
	"idxflow/internal/sched"
)

func cfg() Config {
	return Config{Pricing: cloud.DefaultPricing(), Spec: cloud.DefaultSpec()}
}

// buildOutcomes derives a run's build ledger from its table: the optional
// operators that completed, in id order, and how many operators were killed.
func buildOutcomes(g *dataflow.Graph, res Result) (completed []dataflow.OpID, killed int) {
	for id, r := range res.Ops {
		if r.Killed {
			killed++
		} else if r.Completed && g.Op(dataflow.OpID(id)).Optional {
			completed = append(completed, dataflow.OpID(id))
		}
	}
	return completed, killed
}

func schedOpts() sched.Options {
	return sched.Options{
		Pricing:       cloud.DefaultPricing(),
		Spec:          cloud.DefaultSpec(),
		MaxContainers: 10,
		MaxSkyline:    8,
	}
}

func TestExecuteExactEstimatesMatchPlan(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	b := g.Add(dataflow.Operator{Name: "b", Time: 20})
	if err := g.Connect(a, b, 125); err != nil { // 1 s transfer
		t.Fatal(err)
	}
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	s.Append(b, 1)

	res := Execute(s, cfg())
	if math.Abs(res.Makespan-s.Makespan()) > 1e-9 {
		t.Errorf("realized makespan %g != planned %g", res.Makespan, s.Makespan())
	}
	if math.Abs(res.MoneyQuanta-s.MoneyQuanta()) > 1e-9 {
		t.Errorf("realized money %g != planned %g", res.MoneyQuanta, s.MoneyQuanta())
	}
	if _, killed := buildOutcomes(g, res); killed != 0 {
		t.Errorf("killed = %d, want 0", killed)
	}
	rb := res.Ops[b]
	if math.Abs(rb.Start-11) > 1e-9 {
		t.Errorf("b started at %g, want 11 (transfer delay)", rb.Start)
	}
}

func TestExecuteWithRuntimeErrors(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	b := g.Add(dataflow.Operator{Name: "b", Time: 10})
	if err := g.Connect(a, b, 0); err != nil {
		t.Fatal(err)
	}
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	s.Append(b, 0)

	c := cfg()
	c.Actual = func(op *dataflow.Operator) float64 { return op.Time * 2 }
	res := Execute(s, c)
	if math.Abs(res.Makespan-40) > 1e-9 {
		t.Errorf("makespan with 2x runtimes = %g, want 40", res.Makespan)
	}
}

func TestBuildOpCompletesInGap(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	bi := g.Add(dataflow.Operator{Name: "build", Time: 20, Optional: true, Priority: -1})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0) // [0,10], lease to 60
	if _, err := s.PlaceAt(bi, 0, 10); err != nil {
		t.Fatal(err)
	}
	res := Execute(s, cfg())
	if completed, killed := buildOutcomes(g, res); killed != 0 || len(completed) != 1 {
		t.Errorf("killed=%d completed=%v, want build completed", killed, completed)
	}
	r := res.Ops[bi]
	if r.Start != 10 || r.End != 30 {
		t.Errorf("build interval = [%g,%g], want [10,30]", r.Start, r.End)
	}
}

func TestBuildOpKilledAtLeaseEnd(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	bi := g.Add(dataflow.Operator{Name: "build", Time: 45, Optional: true, Priority: -1})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	if _, err := s.PlaceAt(bi, 0, 10); err != nil {
		t.Fatal(err)
	}
	c := cfg()
	// Build actually takes 60 s, exceeding the lease end at 60.
	c.Actual = func(op *dataflow.Operator) float64 {
		if op.Optional {
			return 60
		}
		return op.Time
	}
	res := Execute(s, c)
	if _, killed := buildOutcomes(g, res); killed != 1 {
		t.Fatalf("killed = %d, want 1", killed)
	}
	r := res.Ops[bi]
	if !r.Killed || math.Abs(r.End-60) > 1e-9 {
		t.Errorf("build = %+v, want killed at 60 (quantum expiry)", r)
	}
	// The kill must not extend the lease.
	if res.MoneyQuanta != 1 {
		t.Errorf("money = %g quanta, want 1", res.MoneyQuanta)
	}
}

func TestBuildOpKilledByPreemption(t *testing.T) {
	// Dataflow: a on c0 [0,10], c depends on a, planned on c0 at [40,50];
	// build placed in the gap [10,40]. If a runs long, the gap shrinks and
	// the build is preempted by c's realized start.
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	c := g.Add(dataflow.Operator{Name: "c", Time: 10})
	if err := g.Connect(a, c, 0); err != nil {
		t.Fatal(err)
	}
	bi := g.Add(dataflow.Operator{Name: "build", Time: 30, Optional: true, Priority: -1})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	if _, err := s.PlaceAt(c, 0, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlaceAt(bi, 0, 10); err != nil {
		t.Fatal(err)
	}
	res := Execute(s, cfg())
	// Realized: a [0,10], c starts at its dependency-ready time 10 (work
	// conserving), so the build is preempted immediately after c... but
	// planned order on the container is a, build, c: the build starts at
	// 10 and c's realized start is 10, so the build is killed at once.
	r := res.Ops[bi]
	if !r.Killed {
		t.Errorf("build not killed: %+v", r)
	}
	if rc := res.Ops[c]; rc.Start != 10 {
		t.Errorf("c started at %g, want 10 (not delayed by build)", rc.Start)
	}
}

// TestOpsTableContract: a run's table has one entry per operator of the
// graph; an optional operator the schedule never placed has the zero entry;
// a build the planned repair drops is killed with a zero-length interval;
// and the build outcomes read off the table are the ones the run had.
func TestOpsTableContract(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	c := g.Add(dataflow.Operator{Name: "c", Time: 10})
	build := func(name string) dataflow.OpID {
		return g.Add(dataflow.Operator{Name: name, Time: 20, Optional: true, Priority: -1})
	}
	done, doomed, unplaced := build("done"), build("doomed"), build("unplaced")
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	s.Append(c, 1)
	for _, pl := range []struct {
		op   dataflow.OpID
		cont int
	}{{done, 0}, {doomed, 1}} {
		if _, err := s.PlaceAt(pl.op, pl.cont, 10); err != nil {
			t.Fatal(err)
		}
	}
	// Container 1 crashes while doomed is planned to run there: the planned
	// repair drops it.
	faults := []fault.Event{{Kind: fault.ContainerCrash, At: 20, Container: 1}}
	assertGolden(t, "table-contract", s, faults, cfg)

	res := New(cfg()).Execute(nil, s, faults)
	if len(res.Ops) != g.Len() {
		t.Fatalf("table has %d entries for %d operators", len(res.Ops), g.Len())
	}
	if r := res.Ops[unplaced]; r != (OpResult{}) || r.Ran() {
		t.Errorf("unplaced build = %+v, want the zero entry", r)
	}
	if r := res.Ops[doomed]; !r.Killed || r.Completed || r.Start != r.End {
		t.Errorf("dropped build = %+v, want killed with a zero-length interval", r)
	}
	for _, id := range []dataflow.OpID{a, c, done} {
		if r := res.Ops[id]; !r.Completed || !r.Ran() {
			t.Errorf("op %d = %+v, want completed", id, r)
		}
	}
	completed, killed := buildOutcomes(g, res)
	if !reflect.DeepEqual(completed, []dataflow.OpID{done}) || killed != 1 {
		t.Errorf("builds completed %v, killed %d; want [%d] and 1", completed, killed, done)
	}
}

// TestRealizedMatchesPlannedProperty: with exact estimates, realized
// makespan and money never exceed the plan (work-conserving execution can
// only shift ops earlier), and with no optional ops nothing is killed.
func TestRealizedMatchesPlannedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := dataflow.New()
		n := 3 + rng.Intn(10)
		ids := make([]dataflow.OpID, n)
		for i := range ids {
			ids[i] = g.Add(dataflow.Operator{Name: "op", Time: 1 + rng.Float64()*50})
		}
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.3 {
					if err := g.Connect(ids[j], ids[i], rng.Float64()*20); err != nil {
						return false
					}
				}
			}
		}
		sky := sched.NewSkyline(schedOpts()).Schedule(g)
		for _, s := range sky {
			res := Execute(s, cfg())
			if _, killed := buildOutcomes(g, res); killed != 0 {
				return false
			}
			if res.Makespan > s.Makespan()+1e-6 {
				t.Logf("seed %d: realized %g > planned %g", seed, res.Makespan, s.Makespan())
				return false
			}
			if res.MoneyQuanta > s.MoneyQuanta()+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestInterleavedExecution runs an LP-interleaved schedule end to end and
// checks builds complete without affecting the dataflow.
func TestInterleavedExecution(t *testing.T) {
	g := dataflow.New()
	src := g.Add(dataflow.Operator{Name: "src", Time: 20})
	sink := g.Add(dataflow.Operator{Name: "sink", Time: 20})
	for i := 0; i < 4; i++ {
		m := g.Add(dataflow.Operator{Name: "mid", Time: 25})
		if err := g.Connect(src, m, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(m, sink, 1); err != nil {
			t.Fatal(err)
		}
	}
	var builds []dataflow.OpID
	for i := 0; i < 5; i++ {
		builds = append(builds, g.Add(dataflow.Operator{
			Name: "build", Time: 8, Optional: true, Priority: -1,
		}))
	}
	skyline := sched.NewSkyline(schedOpts()).Schedule(g)
	interleave.LP(skyline, g, nil)
	s := sched.Fastest(skyline)
	if s == nil {
		t.Fatal("no schedule")
	}
	res := Execute(s, cfg())
	if math.Abs(res.Makespan-s.Makespan()) > 1e-6 {
		t.Errorf("interleaving changed realized makespan: %g vs %g", res.Makespan, s.Makespan())
	}
	placed := 0
	for _, id := range builds {
		if _, ok := s.Assignment(id); ok {
			placed++
		}
	}
	if completed, killed := buildOutcomes(g, res); placed > 0 && len(completed)+killed != placed {
		t.Errorf("placed %d builds but completed %d + killed %d", placed, len(completed), killed)
	}
}

// TestExecuteHeterogeneousTypes: the simulator honours container types —
// ops on a 2x container run in half the time and money is price-weighted.
func TestExecuteHeterogeneousTypes(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 60})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	// A one-type pool: every container is the 2x type at $0.22/q.
	s.Types = cloud.DefaultVMTypes()[1:2]
	if _, err := s.Append(a, 0); err != nil {
		t.Fatal(err)
	}
	res := Execute(s, cfg())
	if math.Abs(res.Makespan-30) > 1e-9 {
		t.Errorf("makespan = %g on 2x container, want 30", res.Makespan)
	}
	// 1 quantum at 2.2x the baseline price.
	if math.Abs(res.MoneyQuanta-2.2) > 1e-9 {
		t.Errorf("money = %g, want 2.2", res.MoneyQuanta)
	}
}

// TestBuildKillReasons: a run returns one build-killed event per killed
// build, with the reason that stopped it — the lease expiring under a build
// that ran long, a dataflow operator arriving at its container, a failure
// dropping it — container and times relative to the run's start, and the
// reference executor returns the same events.
func TestBuildKillReasons(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	c := g.Add(dataflow.Operator{Name: "c", Time: 10})
	d := g.Add(dataflow.Operator{Name: "d", Time: 10})
	e := g.Add(dataflow.Operator{Name: "e", Time: 10})
	build := func(name string) dataflow.OpID {
		return g.Add(dataflow.Operator{Name: name, Time: 40, Optional: true, Priority: -1})
	}
	long, squeezed, doomed := build("long"), build("squeezed"), build("doomed")
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	for _, pl := range []struct {
		op    dataflow.OpID
		cont  int
		start float64
	}{
		{a, 0, 0}, {long, 0, 10}, // the lease ends at 60; the build runs to 90
		{c, 1, 0}, {squeezed, 1, 10}, {d, 1, 50}, // d starts as soon as c ends
		{e, 2, 0}, {doomed, 2, 10}, // container 2 crashes under the build
	} {
		if _, err := s.PlaceAt(pl.op, pl.cont, pl.start); err != nil {
			t.Fatalf("place %s: %v", g.Op(pl.op).Name, err)
		}
	}
	plan := fault.New(fault.Event{Kind: fault.ContainerCrash, At: 30, Container: 2})
	mkCfg := func() Config {
		c := cfg()
		c.Actual = func(op *dataflow.Operator) float64 {
			if op.Optional {
				return 2 * op.Time
			}
			return op.Time
		}
		return c
	}
	assertGolden(t, "kill-reasons", s, plan.From(0), mkCfg)

	res := New(mkCfg()).Execute(nil, s, plan.From(0))
	got := map[string]provenance.Event{}
	for _, ev := range res.Events {
		if ev.Kind == provenance.KindBuildKilled {
			got[ev.Op] = ev
		}
	}
	for _, want := range []provenance.Event{
		{Kind: provenance.KindBuildKilled, T: 10, Op: "long", Container: 0, Start: 10, End: 60, Reason: "expired"},
		{Kind: provenance.KindBuildKilled, T: 10, Op: "squeezed", Container: 1, Start: 10, End: 10, Reason: "preempted"},
		{Kind: provenance.KindBuildKilled, T: 10, Op: "doomed", Container: 2, Start: 10, End: 10, Reason: "fault"},
	} {
		if ev := got[want.Op]; !reflect.DeepEqual(ev, want) {
			t.Errorf("build %s: event %+v, want %+v", want.Op, ev, want)
		}
	}
	if _, killed := buildOutcomes(g, res); len(got) != 3 || killed != 3 {
		t.Errorf("%d kill events for %d killed builds, want 3", len(got), killed)
	}
}
