package sched

import (
	"math"
	"strings"
	"testing"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
)

func heteroOpts() Options {
	o := testOpts()
	o.Types = cloud.DefaultVMTypes()
	return o
}

func TestContainerTypeDefaults(t *testing.T) {
	g := dataflow.New()
	g.Add(dataflow.Operator{Name: "a", Time: 10})
	o := testOpts()
	s := NewSchedule(g, o.Pricing, o.Spec)
	ct := s.ContainerType(0)
	if ct.SpeedFactor != 1 || ct.PricePerQuantum != o.Pricing.VMPerQuantum {
		t.Errorf("default type = %+v", ct)
	}
}

// TestContainerTypeRefusals: a move that types its container runs the op at
// that type's speed, and plan refuses one without a pool, one with a type
// outside the pool, and one that retypes a container in use; probe and make
// agree on each and a refused make leaves the schedule as it was.
func TestContainerTypeRefusals(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 60})
	b := g.Add(dataflow.Operator{Name: "b", Time: 60})
	o := heteroOpts()
	s := NewSchedule(g, o.Pricing, o.Spec)
	s.Types = o.Types
	as, err := s.make(move{op: a, cont: 0, typeIdx: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 60 s op on the 2x type runs in 30 s.
	if math.Abs(as.End-30) > 1e-9 {
		t.Errorf("op end = %g on 2x container, want 30", as.End)
	}
	untyped := NewSchedule(g, o.Pricing, o.Spec)
	for _, tc := range []struct {
		name string
		s    *Schedule
		mv   move
		want string
	}{
		{"no pool", untyped, move{op: b, cont: 0, typeIdx: 0}, "no type pool"},
		{"type out of range", s, move{op: b, cont: 1, typeIdx: 9}, "type 9 out of range"},
		{"retype a used container", s, move{op: b, cont: 0, typeIdx: 0}, "container 0 already in use"},
	} {
		if tc.s.probe(tc.mv, inputsOf(tc.s, tc.mv.op), new(candidate)) {
			t.Errorf("%s: probe accepted %+v", tc.name, tc.mv)
		}
		before := snapshot(tc.s)
		if _, err := tc.s.make(tc.mv); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: make(%+v) = %v, want an error naming %q", tc.name, tc.mv, err, tc.want)
		}
		if got := snapshot(tc.s); got != before {
			t.Errorf("%s: refused make changed the schedule:\n%s\nvs\n%s", tc.name, before, got)
		}
	}
}

func TestMoneyWeighsTypePrices(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 60})
	o := heteroOpts()
	s := NewSchedule(g, o.Pricing, o.Spec)
	s.Types = o.Types
	s.make(move{op: a, cont: 0, typeIdx: 1}) // $0.22/quantum, 30 s -> 1 quantum
	// MoneyQuanta is price-normalized: 1 quantum at 2.2x the base price.
	if got := s.MoneyQuanta(); math.Abs(got-2.2) > 1e-9 {
		t.Errorf("MoneyQuanta = %g, want 2.2", got)
	}
}

func TestHeterogeneousSkylineUsesFastType(t *testing.T) {
	// A serial chain dominated by compute: the fast type halves the
	// makespan for 2.2x the quantum price. The frontier should contain
	// both pure-small and large-using schedules.
	g := dataflow.New()
	prev := g.Add(dataflow.Operator{Name: "op", Time: 50})
	for i := 0; i < 3; i++ {
		next := g.Add(dataflow.Operator{Name: "op", Time: 50})
		if err := g.Connect(prev, next, 0); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	o := heteroOpts()
	sky := NewSkyline(o).Schedule(g)
	if len(sky) == 0 {
		t.Fatal("empty skyline")
	}
	fast := Fastest(sky)
	// All 4 ops on one 2x container: 100 s, vs 200 s on the 1x type.
	if fast.Makespan() > 100+1e-6 {
		t.Errorf("fastest makespan = %g, want <= 100 (large type)", fast.Makespan())
	}
	// The cheapest end: 200 s serial on a small container = 4 quanta at
	// weight 1; the large-type equivalent costs 2 quanta * 2.2 = 4.4.
	least := math.Inf(1)
	for _, s := range sky {
		least = math.Min(least, s.MoneyQuanta())
	}
	if least > 4+1e-9 {
		t.Errorf("cheapest money = %g, want <= 4", least)
	}
	for _, s := range sky {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	}
}

func TestHeterogeneousTransfersUseReceiverNet(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	b := g.Add(dataflow.Operator{Name: "b", Time: 10})
	if err := g.Connect(a, b, 250); err != nil { // 2 s at 125 MB/s, 1 s at 250
		t.Fatal(err)
	}
	o := heteroOpts()
	s := NewSchedule(g, o.Pricing, o.Spec)
	s.Types = o.Types
	s.Append(a, 0)
	ab, err := s.make(move{op: b, cont: 1, typeIdx: 1}) // large: 250 MB/s net
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ab.Start-11) > 1e-9 {
		t.Errorf("b starts at %g, want 11 (1 s transfer on the fast receiver)", ab.Start)
	}
}
