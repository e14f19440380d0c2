package sim

import (
	"math"
	"reflect"
	"testing"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/sched"
)

// twoContPlan builds a [0,10] on c0, b [0,75] on c1, c (depends on b,
// Time 10) on c0 at [75,85].
func twoContPlan(t *testing.T) (*sched.Schedule, dataflow.OpID, dataflow.OpID, dataflow.OpID) {
	t.Helper()
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	b := g.Add(dataflow.Operator{Name: "b", Time: 75})
	c := g.Add(dataflow.Operator{Name: "c", Time: 10})
	if err := g.Connect(b, c, 0); err != nil {
		t.Fatal(err)
	}
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	s.Append(b, 1)
	if _, err := s.PlaceAt(c, 0, 75); err != nil {
		t.Fatal(err)
	}
	return s, a, b, c
}

func TestCrashReplacesPlannedOps(t *testing.T) {
	s, a, b, c := twoContPlan(t)
	cf := cfg()
	// Container 0 crashes at t=5: a is in-flight (5 s wasted), c has not
	// started; both move to the surviving container 1.
	res := New(cf).Execute(nil, s, []fault.Event{{Kind: fault.ContainerCrash, At: 5, Container: 0}})
	for _, id := range []dataflow.OpID{a, c} {
		r := res.Ops[id]
		if !r.Completed || r.Container != 1 {
			t.Errorf("op %d = %+v, want completed on container 1", id, r)
		}
	}
	if rb := res.Ops[b]; !rb.Completed || rb.Start != 0 || rb.End != 75 {
		t.Errorf("survivor b = %+v, want untouched [0,75]", rb)
	}
	if res.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", res.FaultsInjected)
	}
	if res.FaultsRecovered == 0 || res.ReplacedOps != 2 {
		t.Errorf("recovered=%d replaced=%d, want 2 re-placed ops recovered",
			res.FaultsRecovered, res.ReplacedOps)
	}
	// The 5 s of a lost in flight are wasted quanta.
	if res.WastedQuanta < 5.0/cf.Pricing.QuantumSeconds-1e-9 {
		t.Errorf("WastedQuanta = %g, want at least the 5 s partial run", res.WastedQuanta)
	}
	// No silently lost operators: every planned op has a result.
	for id, r := range res.Ops {
		if !r.Ran() {
			t.Errorf("op %d has no result", id)
		}
	}
}

func TestRevocationNoticeBlocksNewStarts(t *testing.T) {
	s, a, _, c := twoContPlan(t)
	cf := cfg()
	// Revocation of container 0 at t=100 with 30 s notice: a (done at 10)
	// is unaffected; c would start at 75, inside the notice window, so it
	// is re-placed on container 1 instead — no work is lost.
	res := New(cf).Execute(nil, s, []fault.Event{{Kind: fault.SpotRevocation, At: 100, Container: 0, NoticeSeconds: 30}})
	if ra := res.Ops[a]; !ra.Completed || ra.Container != 0 {
		t.Errorf("a = %+v, want completed on container 0 before the notice", ra)
	}
	rc := res.Ops[c]
	if !rc.Completed || rc.Container != 1 || !rc.Replaced {
		t.Errorf("c = %+v, want re-placed onto container 1", rc)
	}
	if math.Abs(rc.Start-75) > timeEps || math.Abs(rc.End-85) > timeEps {
		t.Errorf("c ran [%g,%g], want [75,85] (no restart cost: it never started on 0)", rc.Start, rc.End)
	}
	if res.FaultsInjected != 1 || res.FaultsRecovered == 0 {
		t.Errorf("injected=%d recovered=%d, want the revocation absorbed",
			res.FaultsInjected, res.FaultsRecovered)
	}
}

func TestCrashMidOpOpensFreshContainer(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	cf := cfg()
	// a actually takes 20 s; its only container crashes at 15. The planned
	// repair keeps a (planned end 10 <= 15), but the realized run crosses
	// the failure: a restarts from scratch on a fresh container.
	cf.Actual = func(op *dataflow.Operator) float64 { return 20 }
	res := New(cf).Execute(nil, s, []fault.Event{{Kind: fault.ContainerCrash, At: 15, Container: 0}})
	r := res.Ops[a]
	if !r.Completed || r.Container == 0 || !r.Replaced {
		t.Fatalf("a = %+v, want completed on a fresh container", r)
	}
	if math.Abs(r.Start-15) > timeEps || math.Abs(r.End-35) > timeEps {
		t.Errorf("a re-ran [%g,%g], want [15,35]", r.Start, r.End)
	}
	// Wasted: 15 s of the dead run, plus the dead container's paid lease
	// tail (charged through the quantum containing the failure: 60-15).
	want := (15.0 + 45.0) / cf.Pricing.QuantumSeconds
	if math.Abs(res.WastedQuanta-want) > 1e-9 {
		t.Errorf("WastedQuanta = %g, want %g", res.WastedQuanta, want)
	}
	// Both the dead container's quantum and the fresh one are charged.
	if res.MoneyQuanta != 2 {
		t.Errorf("MoneyQuanta = %g, want 2", res.MoneyQuanta)
	}
}

func TestCrashKillsInFlightBuildPartitionNotCommitted(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	bi := g.Add(dataflow.Operator{Name: "build", Time: 30, Optional: true, Priority: -1})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	if _, err := s.PlaceAt(bi, 0, 10); err != nil {
		t.Fatal(err)
	}
	cf := cfg()
	res := New(cf).Execute(nil, s, []fault.Event{{Kind: fault.ContainerCrash, At: 25, Container: 0}})
	r := res.Ops[bi]
	if !r.Killed || r.Completed {
		t.Fatalf("build = %+v, want killed by the crash", r)
	}
	completed, killed := buildOutcomes(g, res)
	if len(completed) != 0 {
		t.Errorf("completed builds %v: a crashed build must never commit (phantom partition)", completed)
	}
	if killed != 1 {
		t.Errorf("killed = %d, want 1", killed)
	}
	if res.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", res.FaultsInjected)
	}
	if res.WastedQuanta <= 0 {
		t.Error("a killed build must be accounted as wasted quanta")
	}
}

func TestStorageErrorDelaysWithBackoff(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	cf := cfg()
	res := New(cf).Execute(nil, s, []fault.Event{{Seq: 0, Kind: fault.StorageError, At: 0, Container: 0, Retries: 3}})
	r := res.Ops[a]
	delay := cloud.DefaultBackoff().TotalDelay(3, 0)
	if delay <= 0 {
		t.Fatal("expected a positive retry delay")
	}
	if !r.Completed || math.Abs(r.End-(10+delay)) > 1e-9 {
		t.Errorf("a = %+v, want completed at %g (10 + retry backoff)", r, 10+delay)
	}
	if res.FaultsInjected != 1 || res.FaultsRecovered != 1 {
		t.Errorf("injected=%d recovered=%d, want the retried transfer counted once each",
			res.FaultsInjected, res.FaultsRecovered)
	}
	if res.WastedQuanta != 0 {
		t.Errorf("WastedQuanta = %g: a retried transfer costs time, not discarded work", res.WastedQuanta)
	}
}

func TestStragglerSlowsContainer(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	cf := cfg()
	res := New(cf).Execute(nil, s, []fault.Event{{Kind: fault.Straggler, At: 0, Container: 0, SlowFactor: 3}})
	r := res.Ops[a]
	if !r.Completed || math.Abs(r.End-30) > 1e-9 {
		t.Errorf("a = %+v, want completed at 30 (3x slowdown)", r)
	}
	if res.FaultsInjected != 1 || res.FaultsRecovered != 1 {
		t.Errorf("injected=%d recovered=%d, want the straggler ridden out",
			res.FaultsInjected, res.FaultsRecovered)
	}
}

func TestFaultsAfterLeasesHitNothing(t *testing.T) {
	s, _, _, _ := twoContPlan(t)
	cf := cfg()
	res := New(cf).Execute(nil, s, []fault.Event{{Kind: fault.ContainerCrash, At: 1e6, Container: 0}})
	base := Execute(s, cfg())
	if res.FaultsInjected != 0 || res.WastedQuanta != 0 {
		t.Errorf("injected=%d wasted=%g for a crash far past the leases, want none",
			res.FaultsInjected, res.WastedQuanta)
	}
	if res.Makespan != base.Makespan || res.MoneyQuanta != base.MoneyQuanta {
		t.Error("an out-of-window fault changed the execution")
	}
}

func TestAnyContainerResolvesDeterministically(t *testing.T) {
	run := func() Result {
		s, _, _, _ := twoContPlan(t)
		cf := cfg()
		return New(cf).Execute(nil, s, []fault.Event{
			{Seq: 0, Kind: fault.Straggler, At: 0, Container: fault.AnyContainer, SlowFactor: 2},
			{Seq: 1, Kind: fault.ContainerCrash, At: 30, Container: fault.AnyContainer},
		})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("identical faulty executions diverged")
	}
	if a.FaultsInjected == 0 {
		t.Error("AnyContainer events did not land on active containers")
	}
}

// TestFaultAccountingInvariant: every injected fault is either recovered
// or shows up as wasted quanta — across a grid of scripted scenarios.
func TestFaultAccountingInvariant(t *testing.T) {
	events := [][]fault.Event{
		{{Kind: fault.ContainerCrash, At: 5, Container: 0}},
		{{Kind: fault.ContainerCrash, At: 40, Container: 1}},
		{{Kind: fault.SpotRevocation, At: 60, Container: 1, NoticeSeconds: 120}},
		{{Kind: fault.StorageError, At: 0, Container: 1, Retries: 2}},
		{{Kind: fault.Straggler, At: 0, Container: 1, SlowFactor: 4}},
		{
			{Seq: 0, Kind: fault.ContainerCrash, At: 20, Container: 0},
			{Seq: 1, Kind: fault.Straggler, At: 0, Container: 1, SlowFactor: 2},
			{Seq: 2, Kind: fault.StorageError, At: 10, Container: 1, Retries: 1},
		},
	}
	for i, evs := range events {
		s, _, _, _ := twoContPlan(t)
		cf := cfg()
		res := New(cf).Execute(nil, s, evs)
		if res.FaultsInjected > 0 && res.FaultsRecovered == 0 && res.WastedQuanta == 0 {
			t.Errorf("case %d: %d faults injected but neither recovered nor accounted as waste",
				i, res.FaultsInjected)
		}
		// No silently lost operators: all three dataflow ops completed.
		done := 0
		for _, r := range res.Ops {
			if r.Completed {
				done++
			}
		}
		if done != 3 {
			t.Errorf("case %d: %d ops completed, want all 3", i, done)
		}
	}
}

// Satellite: boundary tests for the centralized timeEps constant.

func TestBuildCompletesExactlyAtLeaseEnd(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	bi := g.Add(dataflow.Operator{Name: "build", Time: 50, Optional: true, Priority: -1})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0) // lease ends exactly at 60
	if _, err := s.PlaceAt(bi, 0, 10); err != nil {
		t.Fatal(err)
	}
	res := Execute(s, cfg())
	r := res.Ops[bi]
	// Ends exactly at the quantum boundary: completed, not killed.
	if r.Killed || !r.Completed || r.End != 60 {
		t.Errorf("build = %+v, want completed exactly at the lease end 60", r)
	}
	if completed, _ := buildOutcomes(g, res); len(completed) != 1 {
		t.Errorf("completed builds %v, want the boundary build", completed)
	}
}

func TestBuildCompletesExactlyAtPreemptionPoint(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	d := g.Add(dataflow.Operator{Name: "d", Time: 40})
	c := g.Add(dataflow.Operator{Name: "c", Time: 10})
	// c waits for d on the other container, pinning its realized start to
	// exactly 40; the build fits the gap [10,40] exactly.
	if err := g.Connect(d, c, 0); err != nil {
		t.Fatal(err)
	}
	bi := g.Add(dataflow.Operator{Name: "build", Time: 30, Optional: true, Priority: -1})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	s.Append(d, 1)
	if _, err := s.PlaceAt(c, 0, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlaceAt(bi, 0, 10); err != nil {
		t.Fatal(err)
	}
	res := Execute(s, cfg())
	rc := res.Ops[c]
	rb := res.Ops[bi]
	// The build runs [10,40] and c starts at 40: ending exactly at the
	// preemption point counts as completed.
	if rb.Killed || !rb.Completed || rb.End != 40 {
		t.Errorf("build = %+v, want completed exactly at preemption point 40", rb)
	}
	if rc.Start != 40 {
		t.Errorf("c started at %g, want 40", rc.Start)
	}
}

func TestBuildKilledJustPastLeaseEnd(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	bi := g.Add(dataflow.Operator{Name: "build", Time: 50, Optional: true, Priority: -1})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	if _, err := s.PlaceAt(bi, 0, 10); err != nil {
		t.Fatal(err)
	}
	cf := cfg()
	// One microsecond over the boundary — far beyond timeEps — kills it.
	cf.Actual = func(op *dataflow.Operator) float64 {
		if op.Optional {
			return 50 + 1e-6
		}
		return op.Time
	}
	res := Execute(s, cf)
	r := res.Ops[bi]
	if !r.Killed || r.End != 60 {
		t.Errorf("build = %+v, want killed at the lease end 60", r)
	}
}

func TestFaultyRunDeterministic(t *testing.T) {
	run := func() Result {
		g := dataflow.New()
		a := g.Add(dataflow.Operator{Name: "a", Time: 10, Reads: []string{"p1", "p2"}})
		b := g.Add(dataflow.Operator{Name: "b", Time: 10, Reads: []string{"p1"}})
		o := schedOpts()
		s := sched.NewSchedule(g, o.Pricing, o.Spec)
		s.Append(a, 0)
		s.Append(b, 1)
		cf := cfg()
		return New(cf).Execute(nil, s, []fault.Event{{Kind: fault.ContainerCrash, At: 5, Container: 0}})
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("faulty runs diverged")
	}
}
