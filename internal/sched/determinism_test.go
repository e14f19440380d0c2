package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
)

// randomDAG builds a seeded random DAG of n operators; optionalEvery > 0
// marks every k-th operator optional (an index build available from the
// start, so it has no incoming edges).
func randomDAG(seed int64, n, optionalEvery int) *dataflow.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := dataflow.New()
	ids := make([]dataflow.OpID, 0, n)
	for i := 0; i < n; i++ {
		op := dataflow.Operator{Name: fmt.Sprintf("op%d", i), Time: 5 + rng.Float64()*60}
		if optionalEvery > 0 && i%optionalEvery == optionalEvery-1 {
			op.Optional = true
			op.Name = fmt.Sprintf("build%d", i)
			g.Add(op)
			continue
		}
		id := g.Add(op)
		for _, prev := range ids {
			if rng.Float64() < 3.0/float64(len(ids)+2) {
				g.Connect(prev, id, rng.Float64()*20)
			}
		}
		ids = append(ids, id)
	}
	return g
}

// fingerprint renders a skyline into a canonical string: per schedule the
// objective point, the container types, and every assignment. Two runs are
// byte-identical iff their fingerprints match.
func fingerprint(sky []*Schedule) string {
	var b strings.Builder
	for i, s := range sky {
		fmt.Fprintf(&b, "#%d t=%.9f m=%.9f ops=%d conts=%d types=[", i,
			s.Makespan(), s.MoneyQuanta(), s.Assigned(), s.Containers())
		for c := 0; c < s.NumSlots(); c++ {
			fmt.Fprintf(&b, "%s,", s.ContainerType(c).Name)
		}
		b.WriteString("]\n")
		as := s.Assignments()
		sort.Slice(as, func(i, j int) bool { return as[i].Op < as[j].Op })
		for _, a := range as {
			fmt.Fprintf(&b, "  op%d c%d [%.9f,%.9f]\n", a.Op, a.Container, a.Start, a.End)
		}
	}
	return b.String()
}

// TestSkylineDeterministicAcrossRuns is the determinism property test:
// over seeded random DAGs, two runs of Schedule and of ScheduleWithOptional
// must return identical skylines — points, assignments and container
// types.
func TestSkylineDeterministicAcrossRuns(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, withOpt := range []bool{false, true} {
			g := randomDAG(seed, 40, 5)
			run := func() string {
				sk := NewSkyline(testOpts())
				if withOpt {
					return fingerprint(sk.ScheduleWithOptional(g))
				}
				return fingerprint(sk.Schedule(g))
			}
			if want, got := run(), run(); got != want {
				t.Fatalf("seed %d withOptional=%v: second run diverged:\n--- first ---\n%s--- second ---\n%s",
					seed, withOpt, want, got)
			}
		}
	}
}

// snapshot captures every observable property of a schedule for copy
// comparison.
func snapshot(s *Schedule) string {
	return fingerprint([]*Schedule{s}) + fmt.Sprintf("frag=%.9f seqIdle=%.9f",
		s.Fragmentation(), s.MaxSequentialIdle())
}

// TestCloneAndCopyFromAliasing proves mutations on a clone or a CopyFrom
// replica never leak into the parent.
func TestCloneAndCopyFromAliasing(t *testing.T) {
	o := testOpts()
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	b := g.Add(dataflow.Operator{Name: "b", Time: 20})
	c := g.Add(dataflow.Operator{Name: "c", Time: 5})
	if err := g.Connect(a, b, 0); err != nil {
		t.Fatal(err)
	}
	parent := NewSchedule(g, o.Pricing, o.Spec)
	if _, err := parent.Append(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Append(b, 0); err != nil {
		t.Fatal(err)
	}
	before := snapshot(parent)

	clone := parent.Clone()
	if _, err := clone.Append(c, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Repair(nil, 1, 0, topoRanks(clone.Graph)); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(parent); got != before {
		t.Errorf("clone mutations leaked into parent:\nbefore:\n%s\nafter:\n%s", before, got)
	}

	// The replica is a schedule a skyline run recycled, so its slices hold
	// another problem's storage.
	replica := NewSkyline(o).Schedule(randomDAG(3, 40, 0))[0]
	replica.CopyFrom(parent)
	if _, err := replica.Append(c, 0); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(parent); got != before {
		t.Errorf("CopyFrom replica mutations leaked into parent:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if replica.Assigned() != parent.Assigned()+1 {
		t.Errorf("replica ops = %d, want %d", replica.Assigned(), parent.Assigned()+1)
	}
}

// TestCopiesEqualOriginal proves Clone and CopyFrom carry every field a
// schedule is observed through, on a schedule that has been through each
// kind of edit: typed containers, a repair that drops a parked optional
// operator (and invalidates the makespan cache) and an operator added to
// the graph after the schedule was created.
func TestCopiesEqualOriginal(t *testing.T) {
	o := testOpts()
	o.Types = cloud.DefaultVMTypes()
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	b := g.Add(dataflow.Operator{Name: "b", Time: 25})
	opt := g.Add(dataflow.Operator{Name: "build", Time: 30, Optional: true})
	if err := g.Connect(a, b, 4); err != nil {
		t.Fatal(err)
	}
	s := NewSchedule(g, o.Pricing, o.Spec)
	s.Types = o.Types
	if _, err := s.Append(a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.make(move{op: b, cont: 1, typeIdx: 1}); err != nil {
		t.Fatal(err)
	}
	mustPlace(t, s, opt, 0, 10)
	if _, err := s.Repair(nil, 0, 12, topoRanks(s.Graph)); err != nil {
		t.Fatal(err)
	}
	late := g.Add(dataflow.Operator{Name: "late", Time: 7})
	if _, err := s.Append(late, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	want := snapshot(s)
	if got := snapshot(s.Clone()); got != want {
		t.Errorf("Clone differs from its original:\nwant:\n%s\ngot:\n%s", want, got)
	}
	// A skyline member carries another problem's storage, as a recycled
	// schedule does.
	replica := NewSkyline(testOpts()).Schedule(randomDAG(3, 40, 0))[0]
	replica.CopyFrom(s)
	if got := snapshot(replica); got != want {
		t.Errorf("CopyFrom replica differs from its original:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestParetoDuplicateTieBreak is the regression test for deterministic
// duplicate handling: among equal-objective candidates the survivor must
// be the one with fewer containers, then the lower op count — regardless
// of input order.
func TestParetoDuplicateTieBreak(t *testing.T) {
	o := testOpts()
	g := dataflow.New()
	ids := make([]dataflow.OpID, 2)
	for i := range ids {
		ids[i] = g.Add(dataflow.Operator{Name: "op", Time: 30})
	}

	// Two schedules with identical objectives and identical sequential
	// idle time (30 s each) but different container counts. With 60 s
	// quanta: one container leased 2 quanta (ops at [30,60] and [60,90],
	// makespan 60, idle [0,30] and [90,120]) versus two containers leased
	// 1 quantum each (ops at [0,30] and [30,60], makespan 60, one 30 s
	// gap per container). preferCompact must pick the single-container
	// schedule regardless of input order.
	oneCont := NewSchedule(g, o.Pricing, o.Spec)
	mustPlace(t, oneCont, ids[0], 0, 30)
	mustPlace(t, oneCont, ids[1], 0, 60)

	twoCont := NewSchedule(g, o.Pricing, o.Spec)
	mustPlace(t, twoCont, ids[0], 0, 0)
	mustPlace(t, twoCont, ids[1], 1, 30)

	pOne := oneCont.point()
	pTwo := twoCont.point()
	if pOne.time != pTwo.time || pOne.money != pTwo.money {
		t.Fatalf("test setup: objectives differ: %+v vs %+v", pOne, pTwo)
	}
	if oneCont.MaxSequentialIdle() != twoCont.MaxSequentialIdle() {
		t.Fatalf("test setup: seqIdle differs: %g vs %g",
			oneCont.MaxSequentialIdle(), twoCont.MaxSequentialIdle())
	}

	sky := []member{{s: oneCont, p: pOne}, {s: twoCont, p: pTwo}}
	orders := [][]candidate{
		{{p: pOne, from: 0, kind: keep}, {p: pTwo, from: 1, kind: keep}},
		{{p: pTwo, from: 1, kind: keep}, {p: pOne, from: 0, kind: keep}},
	}
	for i, cands := range orders {
		var fb frontierBuf
		out := fb.pareto(cands, &scope{sky: sky, rule: preferSeqIdle})
		if len(out) != 1 {
			t.Fatalf("order %d: pareto kept %d candidates, want 1", i, len(out))
		}
		if s := sky[out[0].from].s; s != oneCont {
			t.Errorf("order %d: survivor uses %d containers, want the 1-container schedule",
				i, s.Containers())
		}
	}

	// preferCompact itself: fewer containers wins, then fewer ops.
	a := candidate{p: point{conts: 1, ops: 3}}
	b := candidate{p: point{conts: 2, ops: 2}}
	if !preferCompact(&a, &b) {
		t.Error("fewer containers should win")
	}
	c1 := candidate{p: point{conts: 2, ops: 2}}
	c2 := candidate{p: point{conts: 2, ops: 3}}
	if !preferCompact(&c1, &c2) {
		t.Error("at equal containers, fewer ops should win")
	}
}

// TestSeqIdleTieBreakKeepsLongestRun: two candidates tie on time, money,
// op count and containers and differ only in their longest idle run, one
// scored off its source (src + mv) and one materialized, in both input
// orders and both roles. The §5.3.1 tie-break keeps the longer run.
func TestSeqIdleTieBreakKeepsLongestRun(t *testing.T) {
	o := testOpts()
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	build := g.Add(dataflow.Operator{Name: "build", Time: 10, Optional: true})
	src := NewSchedule(g, o.Pricing, o.Spec)
	if _, err := src.Append(a, 0); err != nil { // [0,10], one 60 s quantum
		t.Fatal(err)
	}
	// The build at 10 leaves one 40 s run ([20,60]); at 30 it splits the
	// idle time into two 20 s runs. A build counts in no makespan and both
	// stay inside the leased quantum, so time and money tie.
	long := move{op: build, cont: 0, typeIdx: -1, start: 10, place: true}
	short := move{op: build, cont: 0, typeIdx: -1, start: 30, place: true}
	for _, longProbed := range []bool{true, false} {
		spec, mat := short, long
		if longProbed {
			spec, mat = long, short
		}
		specC := candidateOf(0, spec)
		if !src.probe(spec, inputsOf(src, build), &specC) {
			t.Fatalf("probe(%+v) refused", spec)
		}
		s := src.Clone()
		if _, err := s.make(mat); err != nil {
			t.Fatal(err)
		}
		sky := []member{{s: src, p: src.point()}, {s: s, p: s.point()}}
		matC := candidate{p: s.point(), from: 1, kind: keep}
		if !equalObjectives(specC.p, matC.p) || specC.p.ops != matC.p.ops || specC.p.conts != matC.p.conts {
			t.Fatalf("test setup: %+v and %+v differ before the seq-idle tie-break", specC.p, matC.p)
		}
		for _, cands := range [][]candidate{{specC, matC}, {matC, specC}} {
			var fb frontierBuf
			out := fb.pareto(cands, &scope{sky: sky, op: build, rule: preferSeqIdle})
			if len(out) != 1 {
				t.Fatalf("pareto kept %d candidates, want 1", len(out))
			}
			if got := out[0].kind == keep; got == longProbed || out[0].p.seqIdle != 40 {
				t.Errorf("long run speculative = %v, first = %+v: kept materialized = %v with seqIdle %g, want the 40 s run",
					longProbed, cands[0], got, out[0].p.seqIdle)
			}
		}
	}
}

func mustPlace(t *testing.T, s *Schedule, id dataflow.OpID, c int, start float64) {
	t.Helper()
	if _, err := s.PlaceAt(id, c, start); err != nil {
		t.Fatal(err)
	}
}
