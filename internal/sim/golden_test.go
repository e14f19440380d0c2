package sim

// Golden-equivalence suite for the event-driven executor: every test
// replays the same schedule and config through the production Execute and
// the preserved seed implementation (executeReference) and requires the
// two Results to be deeply identical — realized ops, builds, fault
// accounting and cost, bit for bit.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/interleave"
	"idxflow/internal/sched"
	"idxflow/internal/workload"
)

// assertGolden replays (s, cfg, faults) through both executors. mkCfg
// rebuilds the config per path so stateful pieces (perturbation rngs) do
// not leak between the two replays.
func assertGolden(t *testing.T, name string, s *sched.Schedule, faults []fault.Event, mkCfg func() Config) {
	t.Helper()
	got := New(mkCfg()).Execute(nil, s, faults)
	want := executeReference(s, mkCfg(), faults)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: event-core Result diverges from reference\n got: %+v\nwant: %+v", name, got, want)
	}
}

// goldenSchedule plans a Cybershake flow and packs index builds into its
// idle runs.
func goldenSchedule(t testing.TB, seed int64, trial int, withBuilds bool) *sched.Schedule {
	t.Helper()
	db, err := workload.NewFileDB(seed)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(db, seed+1)
	flow := gen.Flow(workload.Cybershake, trial, 0)
	g := flow.Graph
	if withBuilds {
		for i := 0; i < 16; i++ {
			g.Add(dataflow.Operator{
				Name: fmt.Sprintf("build-%d", i), Kind: dataflow.KindBuildIndex,
				Time: float64(3 + i*5), Optional: true, Priority: -1,
			})
		}
	}
	opts := sched.DefaultOptions()
	opts.MaxSkyline = 8
	s := sched.Fastest(sched.NewSkyline(opts).Schedule(g))
	if s == nil {
		t.Fatal("no schedule")
	}
	if withBuilds {
		interleave.PackSchedule(s, nil)
	}
	return s
}

func TestGoldenEquivalenceFaultFree(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		s := goldenSchedule(t, 7, trial, trial%2 == 0)
		for _, errPct := range []float64{0, 20, 80} {
			e := errPct / 100
			name := fmt.Sprintf("trial=%d err=%g", trial, errPct)
			assertGolden(t, name, s, nil, func() Config {
				rng := rand.New(rand.NewSource(int64(trial)*100 + int64(errPct)))
				return Config{
					Pricing: cloud.DefaultPricing(), Spec: cloud.DefaultSpec(),
					Actual: func(op *dataflow.Operator) float64 {
						return op.Time * (1 + (rng.Float64()*2-1)*e)
					},
				}
			})
		}
	}
}

func TestGoldenEquivalenceFaulty(t *testing.T) {
	for _, rate := range []float64{0.1, 0.5, 2.0} {
		for _, fseed := range []int64{1, 42} {
			s := goldenSchedule(t, 11, int(fseed)%3, true)
			plan := fault.Generate(rate, 60, 4000, fseed)
			if rate >= 0.5 && len(plan.Events) == 0 {
				t.Fatalf("rate %g produced an empty plan", rate)
			}
			name := fmt.Sprintf("rate=%g fseed=%d", rate, fseed)
			assertGolden(t, name, s, plan.From(0), func() Config {
				rng := rand.New(rand.NewSource(fseed))
				return Config{
					Pricing: cloud.DefaultPricing(), Spec: cloud.DefaultSpec(),
					Actual: func(op *dataflow.Operator) float64 {
						return op.Time * (1 + (rng.Float64()*2-1)*0.3)
					},
				}
			})
		}
	}
}

func TestGoldenEquivalenceHandPlacedFaults(t *testing.T) {
	// One crash, one straggler and one storage error at chosen times on a
	// hand-placed two-container chain.
	g := dataflow.New()
	var prev dataflow.OpID
	for i := 0; i < 8; i++ {
		id := g.Add(dataflow.Operator{
			Name: fmt.Sprintf("op-%d", i), Time: 30,
			Reads: []string{fmt.Sprintf("part-%d", i%3), "shared"},
		})
		if i > 0 {
			if err := g.Connect(prev, id, 10); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	o := sched.DefaultOptions()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	for _, id := range g.Ops() {
		if _, err := s.Append(id, int(id)%2); err != nil {
			t.Fatal(err)
		}
	}
	plan := fault.New(
		fault.Event{Kind: fault.ContainerCrash, At: 95, Container: 1},
		fault.Event{Kind: fault.Straggler, At: 10, Container: 0, SlowFactor: 1.5},
		fault.Event{Kind: fault.StorageError, At: 40, Container: 0, Retries: 2},
	)
	assertGolden(t, "crash+straggler+storage", s, plan.From(0), cfg)
}

// FuzzExecuteEqualsReference replays a generated schedule under a generated
// fault plan and perturbed runtimes through both executors. The seed corpus
// holds a fault-free run and runs whose plans take effect as a crash, a
// revocation with notice, a straggler and a storage error.
func FuzzExecuteEqualsReference(f *testing.F) {
	f.Add(int64(7), uint8(0), true, uint8(20), uint8(0), int64(1))
	f.Add(int64(11), uint8(0), true, uint8(0), uint8(50), int64(2)) // crash
	f.Add(int64(7), uint8(0), true, uint8(0), uint8(25), int64(7))  // revocation, 120 s notice
	f.Add(int64(7), uint8(1), true, uint8(0), uint8(50), int64(12)) // straggler
	f.Add(int64(7), uint8(2), false, uint8(0), uint8(25), int64(1)) // storage error
	f.Fuzz(func(t *testing.T, seed int64, trial uint8, builds bool, errPct, rate uint8, fseed int64) {
		s := goldenSchedule(t, seed, int(trial%3), builds)
		plan := fault.Generate(float64(rate%200)/100, 60, 1200, fseed)
		e := float64(errPct%100) / 100
		name := fmt.Sprintf("seed=%d trial=%d builds=%t err=%g rate=%d fseed=%d", seed, trial%3, builds, e, rate%200, fseed)
		assertGolden(t, name, s, plan.From(0), func() Config {
			rng := rand.New(rand.NewSource(fseed))
			return Config{
				Pricing: cloud.DefaultPricing(), Spec: cloud.DefaultSpec(),
				Actual: func(op *dataflow.Operator) float64 {
					return op.Time * (1 + (rng.Float64()*2-1)*e)
				},
			}
		})
	})
}

// --- event-core edge semantics (same behavior as the seed, asserted on
// --- both paths)

// An operator whose realized end lands exactly on its container's failure
// time is not considered in-flight at the failure (end > failAt+timeEps is
// required to kill), so it completes in place.
func TestEventCoreOpCompletesExactlyAtKillPoint(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 50})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0) // runs [0, 50]
	plan := fault.New(fault.Event{Kind: fault.ContainerCrash, At: 50, Container: 0})

	assertGolden(t, "exact-kill-point", s, plan.From(0), cfg)
	res := New(cfg()).Execute(nil, s, plan.From(0))
	r := res.Ops[a]
	if !r.Completed || r.Replaced || r.End != 50 {
		t.Errorf("op ending exactly at the kill point = %+v, want completed in place at 50", r)
	}
}

// Two operators planned within timeEps of each other on different
// containers are an eps tie: the smaller topological rank runs first, and
// both realized executions match the reference.
func TestEventCoreTimeEpsTieDifferentContainers(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	b := g.Add(dataflow.Operator{Name: "b", Time: 10})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	if _, err := s.PlaceAt(a, 0, 5e-10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlaceAt(b, 1, 0); err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "eps-tie", s, nil, cfg)
	res := Execute(s, cfg())
	if !res.Ops[a].Completed || !res.Ops[b].Completed {
		t.Errorf("tied ops should both complete: %+v %+v", res.Ops[a], res.Ops[b])
	}
}

// A build squatting idle time that a re-placed dataflow operator arrives
// into is preempted by pass 2 at the arrival, exactly as the reference
// preempts it.
func TestEventCoreBuildPreemptedByPass2(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 40})
	v := g.Add(dataflow.Operator{Name: "victim", Time: 30})
	bi := g.Add(dataflow.Operator{Name: "build", Time: 55, Optional: true, Priority: -1})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0) // [0, 40] on the surviving container
	s.Append(v, 1) // [0, 30] on the doomed container
	if _, err := s.PlaceAt(bi, 0, 40); err != nil {
		t.Fatal(err)
	}
	// Container 1 dies mid-victim: the victim re-places onto container 0,
	// arriving in the idle window the build had claimed.
	plan := fault.New(fault.Event{Kind: fault.ContainerCrash, At: 10, Container: 1})
	assertGolden(t, "pass2-preemption", s, plan.From(0), cfg)
	res := New(cfg()).Execute(nil, s, plan.From(0))
	rv, rb := res.Ops[v], res.Ops[bi]
	if rv.Container != 0 || rv.Start != 40 || res.ReplacedOps != 1 {
		t.Fatalf("victim should re-place onto container 0 behind op a: %+v (replaced=%d)", rv, res.ReplacedOps)
	}
	if !rb.Killed || rb.End > rv.Start+timeEps {
		t.Errorf("build should be preempted by the re-placed arrival at %g: %+v", rv.Start, rb)
	}
}
