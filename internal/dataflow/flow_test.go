package dataflow

import (
	"math"
	"testing"
)

func sampleFlow(t *testing.T) (*Flow, [3]OpID) {
	t.Helper()
	g := New()
	scan := g.Add(Operator{Name: "scan", Kind: KindRangeSelect, Time: 100, Reads: []string{"A.0"}})
	sortOp := g.Add(Operator{Name: "sort", Kind: KindSort, Time: 50})
	agg := g.Add(Operator{Name: "agg", Kind: KindAggregate, Time: 10})
	if err := g.Connect(scan, sortOp, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(sortOp, agg, 2); err != nil {
		t.Fatal(err)
	}
	f := &Flow{
		Name:   "sample",
		Graph:  g,
		Inputs: []string{"A.0"},
		Indexes: []IndexUse{
			{Index: "A/key", Speedup: map[OpID]float64{scan: 4, sortOp: 2}},
		},
		IssuedAt: 30,
	}
	return f, [3]OpID{scan, sortOp, agg}
}

func TestUsesIndex(t *testing.T) {
	f, _ := sampleFlow(t)
	if _, ok := f.UsesIndex("A/key"); !ok {
		t.Error("UsesIndex(A/key) = false, want true")
	}
	if _, ok := f.UsesIndex("A/other"); ok {
		t.Error("UsesIndex(A/other) = true, want false")
	}
}

func TestTimeSavedBy(t *testing.T) {
	f, _ := sampleFlow(t)
	// scan saves 100*(1-1/4)=75, sort saves 50*(1-1/2)=25 -> 100 total.
	if got := f.TimeSavedBy("A/key"); math.Abs(got-100) > 1e-9 {
		t.Errorf("TimeSavedBy = %g, want 100", got)
	}
	if got := f.TimeSavedBy("missing"); got != 0 {
		t.Errorf("TimeSavedBy(missing) = %g, want 0", got)
	}
}

func TestApplyIndexes(t *testing.T) {
	f, ids := sampleFlow(t)
	g := f.Graph.Clone()
	g.ApplyIndex(f.Indexes[0], 1, 0)
	if got := g.Op(ids[0]).Time; math.Abs(got-25) > 1e-9 {
		t.Errorf("scan time with index = %g, want 25", got)
	}
	if got := g.Op(ids[1]).Time; math.Abs(got-25) > 1e-9 {
		t.Errorf("sort time with index = %g, want 25", got)
	}
	if got := g.Op(ids[2]).Time; got != 10 {
		t.Errorf("agg time = %g, want unchanged 10", got)
	}
	// Original untouched.
	if got := f.Graph.Op(ids[0]).Time; got != 100 {
		t.Errorf("original scan time = %g, want 100", got)
	}
}

// An index none of whose partitions the flow touches (f = 0) has s_eff = 1
// and accelerates nothing.
func TestApplyIndexesUnavailable(t *testing.T) {
	f, ids := sampleFlow(t)
	g := f.Graph.Clone()
	g.ApplyIndex(f.Indexes[0], 0, 3)
	if got := g.Op(ids[0]).Time; got != 100 {
		t.Errorf("scan time without index = %g, want 100", got)
	}
}

func TestApplyIndexesExtraRead(t *testing.T) {
	f, ids := sampleFlow(t)
	g := f.Graph.Clone()
	g.ApplyIndex(f.Indexes[0], 1, 3)
	if got := g.Op(ids[0]).Time; math.Abs(got-28) > 1e-9 {
		t.Errorf("scan time with index+read = %g, want 28", got)
	}
}

func TestApplyIndexesIgnoresSpeedupLEQ1(t *testing.T) {
	g := New()
	a := g.Add(Operator{Name: "a", Time: 10})
	g.ApplyIndex(IndexUse{Index: "i", Speedup: map[OpID]float64{a: 0.5}}, 1, 3)
	if got := g.Op(a).Time; got != 10 {
		t.Errorf("speedup<=1 applied: time = %g, want 10", got)
	}
}
