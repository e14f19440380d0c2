package sched

import (
	"testing"

	"idxflow/internal/dataflow"
)

// TestAppendIgnoresOptionalTail: a dataflow op starts at the last dataflow
// op's end, not behind an optional build op occupying the tail — builds
// yield at runtime, so the planner must not let them delay the dataflow.
func TestAppendIgnoresOptionalTail(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	build := g.Add(dataflow.Operator{Name: "build", Time: 40, Optional: true, Priority: -1})
	b := g.Add(dataflow.Operator{Name: "b", Time: 10})
	if err := g.Connect(a, b, 0); err != nil {
		t.Fatal(err)
	}
	o := testOpts()
	s := NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0) // [0,10]
	if _, err := s.PlaceAt(build, 0, 10); err != nil {
		t.Fatal(err) // [10,50]
	}
	ab, err := s.Append(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Start != 10 {
		t.Errorf("b starts at %g, want 10 (not delayed by the build)", ab.Start)
	}
	// The overlapping build was evicted.
	if _, ok := s.Assignment(build); ok {
		t.Error("overlapping optional op still assigned")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestAppendKeepsNonOverlappingOptional: an optional op beyond the new
// dataflow op's interval survives.
func TestAppendKeepsNonOverlappingOptional(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	build := g.Add(dataflow.Operator{Name: "build", Time: 5, Optional: true, Priority: -1})
	b := g.Add(dataflow.Operator{Name: "b", Time: 10})
	o := testOpts()
	s := NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0) // [0,10]
	if _, err := s.PlaceAt(build, 0, 30); err != nil {
		t.Fatal(err) // [30,35]
	}
	ab, err := s.Append(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Start != 10 || ab.End != 20 {
		t.Errorf("b interval = [%g,%g], want [10,20]", ab.Start, ab.End)
	}
	if _, ok := s.Assignment(build); !ok {
		t.Error("non-overlapping optional op was evicted")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestAppendOptionalStillQueuesAtTail: appending an optional op itself uses
// the full container tail (it must not overlap anything).
func TestAppendOptionalStillQueuesAtTail(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	b1 := g.Add(dataflow.Operator{Name: "b1", Time: 5, Optional: true})
	b2 := g.Add(dataflow.Operator{Name: "b2", Time: 5, Optional: true})
	o := testOpts()
	s := NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	a1, _ := s.Append(b1, 0)
	a2, _ := s.Append(b2, 0)
	if a1.Start != 10 || a2.Start != 15 {
		t.Errorf("optional appends at %g and %g, want 10 and 15", a1.Start, a2.Start)
	}
}
