package sched

import (
	"math"
	"testing"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
)

// repairFixture builds a two-container schedule: a [0,10] and c [10,20] on
// container 0, b [0,15] on container 1, and an optional build on container
// 0 at [20,30].
func repairFixture(t *testing.T) (*Schedule, dataflow.OpID, dataflow.OpID, dataflow.OpID, dataflow.OpID) {
	t.Helper()
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	b := g.Add(dataflow.Operator{Name: "b", Time: 15})
	c := g.Add(dataflow.Operator{Name: "c", Time: 10})
	bi := g.Add(dataflow.Operator{Name: "build", Time: 10, Optional: true, Priority: -1})
	if err := g.Connect(a, c, 0); err != nil {
		t.Fatal(err)
	}
	s := NewSchedule(g, cloud.DefaultPricing(), cloud.DefaultSpec())
	mustPlace := func(op dataflow.OpID, cont int, start float64) {
		t.Helper()
		if _, err := s.PlaceAt(op, cont, start); err != nil {
			t.Fatal(err)
		}
	}
	mustPlace(a, 0, 0)
	mustPlace(b, 1, 0)
	mustPlace(c, 0, 10)
	mustPlace(bi, 0, 20)
	return s, a, b, c, bi
}

func TestRepairReplacesOrphansAndDropsBuilds(t *testing.T) {
	s, a, b, c, bi := repairFixture(t)
	reps, err := s.Repair(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	byOp := make(map[dataflow.OpID]RepairedOp)
	for _, r := range reps {
		byOp[r.Op] = r
	}
	if len(reps) != 3 {
		t.Fatalf("repaired %d ops, want 3 (a, c, build)", len(reps))
	}
	// a was in-flight: 5 s of work is wasted and it moves to container 1.
	ra := byOp[a]
	if math.Abs(ra.WastedSeconds-5) > 1e-9 {
		t.Errorf("a wasted %g s, want 5", ra.WastedSeconds)
	}
	if ra.Dropped || ra.New.Container != 1 {
		t.Errorf("a repaired to %+v, want re-placed on container 1", ra.New)
	}
	if ra.New.Start < 5 {
		t.Errorf("a re-placed at %g, before the failure", ra.New.Start)
	}
	// c had not started: nothing wasted, still re-placed after a.
	rc := byOp[c]
	if rc.WastedSeconds != 0 || rc.Dropped {
		t.Errorf("c = %+v, want re-placed with no waste", rc)
	}
	if rc.New.Start < ra.New.End-1e-9 {
		t.Errorf("dependent c starts at %g before predecessor a ends at %g", rc.New.Start, ra.New.End)
	}
	// The build is dropped, not re-placed.
	rb := byOp[bi]
	if !rb.Dropped {
		t.Errorf("build = %+v, want dropped", rb)
	}
	if _, placed := s.Assignment(bi); placed {
		t.Error("dropped build still assigned")
	}
	// b on the surviving container is untouched.
	if ab, ok := s.Assignment(b); !ok || ab.Container != 1 || ab.Start != 0 {
		t.Errorf("survivor b = %+v, want untouched", ab)
	}
	// The dead container holds nothing that runs past the failure.
	for _, asg := range s.Assignments() {
		if asg.Container == 0 && asg.End > 5+1e-9 {
			t.Errorf("dead container still runs %+v past the failure", asg)
		}
	}
}

func TestRepairKeepsFinishedWork(t *testing.T) {
	s, a, _, c, bi := repairFixture(t)
	// Failure at 12: a [0,10] survives (durable output), c and build move.
	reps, err := s.Repair(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if aa, ok := s.Assignment(a); !ok || aa.Container != 0 {
		t.Errorf("finished a = %+v, want kept on the dead container's history", aa)
	}
	if len(reps) != 2 {
		t.Fatalf("repaired %d ops, want 2 (c, build)", len(reps))
	}
	for _, r := range reps {
		if r.Op == c && (r.Dropped || math.Abs(r.WastedSeconds-2) > 1e-9) {
			t.Errorf("c = %+v, want re-placed with 2 s wasted", r)
		}
		if r.Op == bi && !r.Dropped {
			t.Errorf("build = %+v, want dropped", r)
		}
	}
}

func TestRepairNoOrphans(t *testing.T) {
	s, _, _, _, _ := repairFixture(t)
	reps, err := s.Repair(0, 100)
	if err != nil || reps != nil {
		t.Errorf("repair past all work = (%v, %v), want nothing to do", reps, err)
	}
	reps, err = s.Repair(7, 0) // nonexistent container
	if err != nil || reps != nil {
		t.Errorf("repair of unknown container = (%v, %v), want no-op", reps, err)
	}
}

func TestRepairOpensFreshContainerWhenAllDead(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	s := NewSchedule(g, cloud.DefaultPricing(), cloud.DefaultSpec())
	if _, err := s.PlaceAt(a, 0, 0); err != nil {
		t.Fatal(err)
	}
	reps, err := s.Repair(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Dropped {
		t.Fatalf("reps = %+v, want a re-placed", reps)
	}
	if reps[0].New.Container == 0 {
		t.Error("op re-placed on the dead container")
	}
	if reps[0].New.Start < 5 {
		t.Errorf("re-placed at %g, before the failure", reps[0].New.Start)
	}
}

func TestRepairDeterministic(t *testing.T) {
	s1, _, _, _, _ := repairFixture(t)
	s2, _, _, _, _ := repairFixture(t)
	r1, err1 := s1.Repair(0, 5)
	r2, err2 := s2.Repair(0, 5)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("different repair counts: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("repair %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}
