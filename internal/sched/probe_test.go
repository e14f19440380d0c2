package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
)

// probeSchedule builds a random partial schedule from seed: a random DAG
// with index-build ops, a pool (none, one of fractional prices, speeds and
// network rates, one of integer weights 1 and 2, or cloud.DefaultVMTypes),
// a prefix of the dataflow ops appended in topological order onto random
// (sometimes fresh and typed) containers, builds parked at random instants
// and just after containers' last ops, where later appends evict them, in
// one seed of four a repair that leaves the makespan cache and the idle
// books stale, and in one of three an unplaced op of no duration.
func probeSchedule(seed int64) (*Schedule, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	g := randomDAG(seed, 3+rng.Intn(14), []int{0, 2, 3, 5}[rng.Intn(4)])
	o := testOpts()
	s := NewSchedule(g, o.Pricing, o.Spec)
	switch rng.Intn(4) {
	case 1:
		for i := 0; i < 1+rng.Intn(3); i++ {
			spec := o.Spec
			spec.NetMBps *= 0.5 + 2*rng.Float64()
			s.Types = append(s.Types, cloud.VMType{
				Name:            string(rune('a' + i)),
				Spec:            spec,
				PricePerQuantum: o.Pricing.VMPerQuantum * (0.3 + 3*rng.Float64()),
				SpeedFactor:     0.5 + 2*rng.Float64(),
			})
		}
	case 2:
		for w := 1; w <= 2; w++ {
			s.Types = append(s.Types, cloud.VMType{Name: string(rune('0' + w)), Spec: o.Spec,
				PricePerQuantum: o.Pricing.VMPerQuantum * float64(w), SpeedFactor: float64(w)})
		}
	case 3:
		s.Types = cloud.DefaultVMTypes()
	}
	topo, err := g.TopoSort()
	if err != nil {
		panic(err)
	}
	flows := rng.Intn(len(topo) + 1)
	for _, id := range topo {
		c := rng.Intn(s.NumSlots() + 1)
		if g.Op(id).Optional {
			if rng.Intn(2) == 0 {
				s.PlaceAt(id, c, 200*rng.Float64()) // an overlap is refused, which is fine
			}
			continue
		}
		if flows == 0 {
			continue
		}
		flows--
		mv := move{op: id, cont: c, typeIdx: -1}
		if c == s.NumSlots() && len(s.Types) > 0 {
			mv.typeIdx = rng.Intn(len(s.Types))
		}
		s.make(mv) // an unplaced predecessor is refused, which is fine
	}
	// Park the builds still unplaced just after a container's last op, where
	// the next dataflow append onto it starts and preempts them.
	for _, id := range topo {
		if g.Op(id).Optional && !s.isPlaced(id) && s.NumSlots() > 0 {
			c := rng.Intn(s.NumSlots())
			s.PlaceAt(id, c, s.lastEnd(c)+20*rng.Float64())
		}
	}
	if rng.Intn(4) == 0 && s.NumSlots() > 0 {
		s.Repair(rng.Intn(s.NumSlots()), 120*rng.Float64())
	}
	// Placed at a container's last start, an op of no duration goes before
	// the last op.
	if rng.Intn(3) == 0 {
		for _, id := range topo {
			if !s.isPlaced(id) {
				g.Op(id).Time = 0
				break
			}
		}
	}
	return s, rng
}

// probeEqualsMake requires probe(mv) and seqIdleAfter(mv) to write nothing
// to s, memos included, and to agree, to the bit, with what point() and
// MaxSequentialIdle read after make(mv) on a copy of s. A refused make
// must leave its copy as it was.
func probeEqualsMake(t *testing.T, s *Schedule, mv move) {
	t.Helper()
	before := s.Clone()
	got, start, end, ok := s.probe(mv)
	idle := 0.0
	if ok {
		idle = s.seqIdleAfter(mv, start, end)
	}
	if !reflect.DeepEqual(s.Clone(), before) {
		t.Fatalf("probe or seqIdleAfter(%+v) wrote to the schedule", mv)
	}
	c := s.Clone()
	a, err := c.make(mv)
	if ok != (err == nil) {
		t.Fatalf("probe(%+v) legal = %v, make error = %v", mv, ok, err)
	}
	if err != nil {
		if !reflect.DeepEqual(c, before) {
			t.Fatalf("refused make(%+v) changed the schedule", mv)
		}
		return
	}
	checkBooks(t, c, fmt.Sprintf("make(%+v) on a copy", mv))
	if math.Float64bits(start) != math.Float64bits(a.Start) || math.Float64bits(end) != math.Float64bits(a.End) {
		t.Fatalf("probe(%+v) planned [%v, %v), make placed %+v", mv, start, end, a)
	}
	want := c.point()
	if math.Float64bits(got.time) != math.Float64bits(want.time) ||
		math.Float64bits(got.money) != math.Float64bits(want.money) ||
		got.ops != want.ops || got.conts != want.conts || got.seqIdle != want.seqIdle {
		t.Fatalf("probe(%+v) = %+v, make + point() = %+v", mv, got, want)
	}
	if w := c.MaxSequentialIdle(); math.Float64bits(idle) != math.Float64bits(w) {
		t.Fatalf("seqIdleAfter(%+v) = %v, make + MaxSequentialIdle() = %v", mv, idle, w)
	}
}

// checkBooks requires the books make, Repair and CopyFrom keep to equal a
// recount from the schedule's ops: per container the leased quanta, the
// latest dataflow end and the build count, and, unless stale, the idle
// walk and its longest run; the used containers, the weighted quanta
// total, and, when every weight is an integer, that total as MoneyQuanta's
// bits summed in container order; and, unless stale, the largest run, a
// container holding it and the largest run on any other container.
func checkBooks(t *testing.T, s *Schedule, what string) {
	t.Helper()
	quanta, used := 0, 0
	ordered := 0.0
	bits := math.Float64bits
	runs := make([]float64, len(s.conts)) // -1: no op
	for c, k := range s.conts {
		runs[c] = -1
		if len(k.ops) > 0 {
			w := s.contWalk(c, Assignment{Op: -1}, false)
			runs[c] = w.total(s.Pricing)
			switch {
			case k.seqIdle < 0 && s.idleOK:
				t.Fatalf("%s: container %d is stale under fresh top-two books", what, c)
			case k.seqIdle < 0:
			case bits(k.seqIdle) != bits(runs[c]) || !sameWalk(k.walk, w):
				t.Fatalf("%s: container %d books run %v walk %+v, recount %v %+v", what, c, k.seqIdle, k.walk, runs[c], w)
			}
		}
	}
	if s.idleOK {
		var max1 float64
		for _, v := range runs {
			if v > max1 {
				max1 = v
			}
		}
		var max2 float64
		for c, v := range runs {
			if c != s.idleTop && v > max2 {
				max2 = v
			}
		}
		top := 0.0
		if s.idleTop >= 0 {
			top = runs[s.idleTop]
		}
		if bits(s.idle1) != bits(max1) || bits(top) != bits(max1) || bits(s.idle2) != bits(max2) {
			t.Fatalf("%s: top-two books %v on container %d and %v, recount %v (container's %v) and %v",
				what, s.idle1, s.idleTop, s.idle2, max1, top, max2)
		}
	}
	for c, k := range s.conts {
		var flowEnd float64
		builds := 0
		for _, id := range k.ops {
			if s.Graph.Op(id).Optional {
				builds++
			} else if e := s.assign[id].End; e > flowEnd {
				flowEnd = e
			}
		}
		lease := s.Pricing.Quanta(s.lastEnd(c))
		if len(k.ops) > 0 {
			used++
			quanta += lease * int(s.weight(s.typeIndex(c)))
			ordered += float64(lease) * s.weight(s.typeIndex(c))
			if k.lease != lease {
				t.Fatalf("%s: container %d leases %d quanta, recount %d", what, c, k.lease, lease)
			}
		}
		if k.flowEnd != flowEnd || k.builds != builds {
			t.Fatalf("%s: container %d books flowEnd %v builds %d, recount %v %d", what, c, k.flowEnd, k.builds, flowEnd, builds)
		}
	}
	if s.quanta != quanta || s.used != used {
		t.Fatalf("%s: totals quanta %d used %d, recount %d %d", what, s.quanta, s.used, quanta, used)
	}
	if got := s.MoneyQuanta(); math.Float64bits(got) != math.Float64bits(ordered) {
		t.Fatalf("%s: MoneyQuanta %v, ordered sum %v", what, got, ordered)
	}
}

// sameWalk reports whether two idle walks hold the same state, to the bit.
func sameWalk(a, b idleWalk) bool {
	bits := math.Float64bits
	return bits(a.cursor) == bits(b.cursor) && bits(a.last) == bits(b.last) &&
		bits(a.run) == bits(b.run) && bits(a.best) == bits(b.best) && bits(a.prevEnd) == bits(b.prevEnd)
}

// FuzzProbeEqualsApply checks the skyline's read-only probe and seq-idle
// tie-break against make on a copy, over every append and placement of
// every operator onto every container (fresh included) as every type
// (untyped and out of range included), placements at the origin, the last
// op's start, the lease end and a random instant, and placements at
// idle-run starts and ends, and recounts the books after each make. Then it
// copies the schedule into a recycled one and edits it with random makes,
// repairs and copies, and recounts its books after every edit.
func FuzzProbeEqualsApply(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 4, 7, 11, 42, -5, -471} {
		f.Add(seed)
	}
	f.Add(int64(20)) // an op of no duration placed at a container's last start
	f.Add(int64(8))  // appends after a repair
	f.Add(int64(14)) // a repaired schedule's stale books copied into a recycled one
	f.Add(int64(17)) // one container, so the second-largest run is 0
	f.Fuzz(func(t *testing.T, seed int64) {
		s, rng := probeSchedule(seed)
		for id := 0; id < s.Graph.Len(); id++ {
			op := dataflow.OpID(id)
			for c := 0; c <= s.NumSlots(); c++ {
				lastStart := 0.0
				if ops := s.opsOn(c); len(ops) > 0 {
					lastStart = s.assign[ops[len(ops)-1]].Start
				}
				for ti := -1; ti <= len(s.Types); ti++ {
					probeEqualsMake(t, s, move{op: op, cont: c, typeIdx: ti})
					for _, start := range []float64{0, lastStart, s.lastEnd(c), 300 * rng.Float64()} {
						probeEqualsMake(t, s, move{op: op, cont: c, typeIdx: ti, start: start, place: true})
					}
				}
			}
			for _, run := range s.IdleRuns() {
				probeEqualsMake(t, s, move{op: op, cont: run.Container, typeIdx: -1, start: run.Start, place: true})
				probeEqualsMake(t, s, move{op: op, cont: run.Container, typeIdx: -1, start: run.End - s.Graph.Op(op).Time, place: true})
			}
		}
		checkBooks(t, s, "built")
		// A recycled schedule holds another problem's storage.
		spare, _ := probeSchedule(seed + 1)
		spare.CopyFrom(s)
		s, spare = spare, s
		checkBooks(t, s, "copy")
		for i := 0; i < 24; i++ {
			what := ""
			switch c := rng.Intn(s.NumSlots() + 2); rng.Intn(5) {
			case 0:
				s.Repair(c, 150*rng.Float64())
				what = fmt.Sprintf("repair of container %d", c)
			case 1:
				spare.CopyFrom(s)
				s, spare = spare, s
				what = "copy"
			default:
				mv := move{op: dataflow.OpID(rng.Intn(s.Graph.Len())), cont: c, typeIdx: rng.Intn(len(s.Types)+1) - 1}
				if rng.Intn(2) == 0 {
					mv.start, mv.place = 250*rng.Float64(), true
				}
				probeEqualsMake(t, s, mv)
				s.make(mv) // a refused move is fine
				what = fmt.Sprintf("make(%+v)", mv)
			}
			checkBooks(t, s, what)
		}
	})
}

// TestMaterializePanicsOnForgedMove: a survivor whose move does not apply
// is a probe that disagrees with apply, and it fails where it happens,
// naming the move, instead of leaving a nil schedule on the frontier.
func TestMaterializePanicsOnForgedMove(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	b := g.Add(dataflow.Operator{Name: "b", Time: 10})
	o := testOpts()
	src := NewSchedule(g, o.Pricing, o.Spec)
	if _, err := src.Append(a, 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mv   move
		want string
	}{
		{move{op: a, cont: 1, typeIdx: -1}, "probed append of op 0 on container 1"},                       // a is placed
		{move{op: b, cont: 0, typeIdx: -1, start: 5, place: true}, "probed place of op 1 on container 0"}, // overlaps a
	} {
		if _, _, _, ok := src.probe(tc.mv); ok {
			t.Fatalf("probe accepted the forged move %+v", tc.mv)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("materialize(%+v) panicked with %q, want it to name %q", tc.mv, msg, tc.want)
				}
			}()
			c := candidate{src: src, mv: tc.mv}
			var free freeList
			c.materialize(&free, false)
		}()
	}
}

// TestColdSkylineAllocsIndependentOfProcs: a cold schedule runs on one
// goroutine with run-local scratch, so what it allocates must not depend
// on GOMAXPROCS, for a dataflow alone and for an online run whose gap steps
// place index builds. testing.AllocsPerRun pins GOMAXPROCS to 1 while it
// measures, so the mallocs are counted here at each setting instead.
func TestColdSkylineAllocsIndependentOfProcs(t *testing.T) {
	flow, online := benchGraph(100), randomDAG(3, 60, 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name     string
		schedule func()
	}{
		{"dataflow", func() { NewSkyline(DefaultOptions()).Schedule(flow) }},
		{"online", func() { NewSkyline(DefaultOptions()).ScheduleWithOptional(online) }},
	} {
		const runs = 10
		var got [3]uint64
		for i, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			// Warm up, as testing.AllocsPerRun does, and let one collection
			// start the GC's per-P workers, which are allocations of their own.
			tc.schedule()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 0; r < runs; r++ {
				tc.schedule()
			}
			runtime.ReadMemStats(&after)
			got[i] = (after.Mallocs - before.Mallocs) / runs
		}
		if got[0] != got[1] || got[1] != got[2] {
			t.Fatalf("%s: allocs per cold schedule at GOMAXPROCS 1, 2, 4 = %v, want one value", tc.name, got)
		}
	}
}
