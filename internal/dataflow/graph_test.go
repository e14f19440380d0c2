package dataflow

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func diamond(t *testing.T) (*Graph, [4]OpID) {
	t.Helper()
	g := New()
	a := g.Add(Operator{Name: "a", Time: 10})
	b := g.Add(Operator{Name: "b", Time: 20})
	c := g.Add(Operator{Name: "c", Time: 30})
	d := g.Add(Operator{Name: "d", Time: 5})
	for _, e := range []struct {
		from, to OpID
		size     float64
	}{{a, b, 1}, {a, c, 2}, {b, d, 3}, {c, d, 4}} {
		if err := g.Connect(e.from, e.to, e.size); err != nil {
			t.Fatalf("Connect(%d,%d): %v", e.from, e.to, err)
		}
	}
	return g, [4]OpID{a, b, c, d}
}

func TestAddAssignsSequentialIDs(t *testing.T) {
	g := New()
	if id := g.Add(Operator{Name: "x"}); id != 0 {
		t.Errorf("first ID = %d, want 0", id)
	}
	if id := g.Add(Operator{Name: "y"}); id != 1 {
		t.Errorf("second ID = %d, want 1", id)
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
}

func TestConnectRejectsUnknownOps(t *testing.T) {
	g := New()
	a := g.Add(Operator{Name: "a"})
	if err := g.Connect(a, 99, 1); err == nil {
		t.Error("Connect to unknown op succeeded, want error")
	}
	if err := g.Connect(99, a, 1); err == nil {
		t.Error("Connect from unknown op succeeded, want error")
	}
}

func TestConnectRejectsSelfLoop(t *testing.T) {
	g := New()
	a := g.Add(Operator{Name: "a"})
	if err := g.Connect(a, a, 1); err == nil {
		t.Error("self-loop accepted, want error")
	}
}

func TestConnectRejectsCycle(t *testing.T) {
	g := New()
	a := g.Add(Operator{Name: "a"})
	b := g.Add(Operator{Name: "b"})
	c := g.Add(Operator{Name: "c"})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.Connect(a, b, 1))
	must(g.Connect(b, c, 1))
	if err := g.Connect(c, a, 1); err == nil {
		t.Error("cycle-creating edge accepted, want error")
	}
}

func TestConnectRejectsNegativeSize(t *testing.T) {
	g := New()
	a := g.Add(Operator{Name: "a"})
	b := g.Add(Operator{Name: "b"})
	if err := g.Connect(a, b, -1); err == nil {
		t.Error("negative edge size accepted, want error")
	}
}

func TestTopoSortRespectsDependencies(t *testing.T) {
	g, ids := diamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[OpID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, id := range g.Ops() {
		for _, e := range g.Out(id) {
			if pos[e.From] >= pos[e.To] {
				t.Errorf("edge %d->%d out of order: pos %d >= %d", e.From, e.To, pos[e.From], pos[e.To])
			}
		}
	}
	if order[0] != ids[0] || order[len(order)-1] != ids[3] {
		t.Errorf("order = %v, want source %d first and sink %d last", order, ids[0], ids[3])
	}
}

func TestSourcesAndSinks(t *testing.T) {
	g, ids := diamond(t)
	for _, id := range g.Ops() {
		if source := len(g.In(id)) == 0; source != (id == ids[0]) {
			t.Errorf("op %d has %d incoming edges; want %d the only source", id, len(g.In(id)), ids[0])
		}
		if sink := len(g.Out(id)) == 0; sink != (id == ids[3]) {
			t.Errorf("op %d has %d outgoing edges; want %d the only sink", id, len(g.Out(id)), ids[3])
		}
	}
}

func TestCriticalPath(t *testing.T) {
	g, _ := diamond(t)
	// Longest path: a(10) -> c(30) -> d(5) = 45.
	if cp := g.CriticalPath(); cp != 45 {
		t.Errorf("CriticalPath = %g, want 45", cp)
	}
}

func TestLevels(t *testing.T) {
	g, ids := diamond(t)
	levels := g.Levels()
	if len(levels) != 3 {
		t.Fatalf("got %d levels, want 3", len(levels))
	}
	if len(levels[0]) != 1 || levels[0][0] != ids[0] {
		t.Errorf("level 0 = %v, want [%d]", levels[0], ids[0])
	}
	if len(levels[1]) != 2 {
		t.Errorf("level 1 = %v, want 2 ops", levels[1])
	}
	if len(levels[2]) != 1 || levels[2][0] != ids[3] {
		t.Errorf("level 2 = %v, want [%d]", levels[2], ids[3])
	}
}

func TestValidate(t *testing.T) {
	g, _ := diamond(t)
	if err := g.Validate(); err != nil {
		t.Errorf("Validate on valid graph: %v", err)
	}
	bad := New()
	bad.Add(Operator{Name: "neg", Time: -1})
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted negative time")
	}
	bad2 := New()
	bad2.Add(Operator{Name: "cpu", CPU: 1.5})
	if err := bad2.Validate(); err == nil {
		t.Error("Validate accepted CPU demand > 1")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, ids := diamond(t)
	c := g.Clone()
	c.Op(ids[0]).Time = 999
	if g.Op(ids[0]).Time == 999 {
		t.Error("mutating clone changed the original")
	}
	if c.Len() != g.Len() {
		t.Errorf("clone Len = %d, want %d", c.Len(), g.Len())
	}
	if got, want := c.CriticalPath(), 999.0+30+5; got != want {
		t.Errorf("clone CriticalPath = %g, want %g", got, want)
	}
}

func TestDOTContainsAllNodes(t *testing.T) {
	g, _ := diamond(t)
	dot := g.DOT("diamond")
	for _, name := range []string{"n0", "n1", "n2", "n3", "n0 -> n1", "n2 -> n3"} {
		if !strings.Contains(dot, name) {
			t.Errorf("DOT output missing %q:\n%s", name, dot)
		}
	}
}

// randomDAG builds a random DAG with n operators where edges only go from
// lower to higher IDs, so it is acyclic by construction.
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := New()
	ids := make([]OpID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.Add(Operator{Name: "op", Time: rng.Float64() * 100})
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < 0.3 {
				if err := g.Connect(ids[j], ids[i], rng.Float64()*10); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func TestTopoSortPropertyRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		g := randomDAG(rand.New(rand.NewSource(seed)), 2+rng.Intn(30))
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		if len(order) != g.Len() {
			return false
		}
		pos := make(map[OpID]int)
		for i, id := range order {
			pos[id] = i
		}
		for _, id := range g.Ops() {
			for _, e := range g.Out(id) {
				if pos[e.From] >= pos[e.To] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCriticalPathPropertyBounds(t *testing.T) {
	// CriticalPath <= the sum of all operator times, and CriticalPath >=
	// max single op time.
	f := func(seed int64) bool {
		g := randomDAG(rand.New(rand.NewSource(seed)), 20)
		var total, maxOp float64
		for _, id := range g.Ops() {
			op := g.Op(id)
			total += op.Time
			if op.Time > maxOp {
				maxOp = op.Time
			}
		}
		cp := g.CriticalPath()
		return cp <= total+1e-9 && cp >= maxOp-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
