// Package dataflow models data processing flows as directed acyclic graphs
// of operators, following the application model of Kllapi et al. (EDBT 2020,
// §3): nodes are operators annotated with resource demands and an estimated
// runtime, and edges carry the size of the data transferred between them.
package dataflow

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// OpID identifies an operator within a single Graph.
type OpID int

// Kind classifies operators into the five generic categories of §1 where
// indexes help, plus generic processing and the index-build operator used by
// the interleaving algorithms.
type Kind int

// Operator kinds. KindProcess is a generic black-box computation.
const (
	KindProcess Kind = iota
	KindLookup
	KindRangeSelect
	KindSort
	KindGroup
	KindJoin
	KindPartition
	KindAggregate
	KindBuildIndex
)

var kindNames = [...]string{
	"process", "lookup", "range", "sort", "group", "join",
	"partition", "aggregate", "build-index",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Operator is a node of a dataflow graph, modelled as
// op(cpu, memory, disk, time) per §3 of the paper.
type Operator struct {
	ID   OpID
	Name string
	Kind Kind

	// CPU and Memory are fractions of a single container's capacity in
	// (0, 1]. Disk is scratch space in MB.
	CPU    float64
	Memory float64
	Disk   float64

	// Time is the estimated runtime in seconds on a dedicated container.
	Time float64

	// Priority is the §6.1 execution priority: dataflow operators run at 1,
	// index-build operators at -1. The flow language carries it; the
	// executor decides preemption by Optional, which marks exactly the
	// priority -1 operators.
	Priority int

	// Optional marks operators that the interleaving algorithms may leave
	// out of a schedule without violating the dataflow (§5.3.2) and that
	// the executor stops when a dataflow operator arrives at their
	// container or the leased quantum expires (§6.1). It is true exactly
	// for index-build operators.
	Optional bool

	// Reads lists the partition paths this operator consumes from the
	// storage service, as the flow language and the workload generator
	// give them. No scheduling or execution decision reads it: input
	// reads are folded into Time.
	Reads []string

	// BuildsIndex names the index partition an index-build operator
	// creates; empty for dataflow operators.
	BuildsIndex string
}

// BuildOp returns the operator that builds the index partition at path in
// the given seconds: one whole CPU and a quarter of the memory, below every
// dataflow operator's priority and optional, so it only fills idle slots
// and is the first stopped (§5.3, §6.1).
func BuildOp(path string, seconds float64) Operator {
	return Operator{
		Name:        "build:" + path,
		Kind:        KindBuildIndex,
		CPU:         1,
		Memory:      0.25,
		Time:        seconds,
		Priority:    -1,
		Optional:    true,
		BuildsIndex: path,
	}
}

// Edge is a flow dependency between two operators carrying Size MB of data.
type Edge struct {
	From, To OpID
	Size     float64 // MB
}

// Graph is a DAG of operators. The zero value is not usable; call New.
//
// Operator IDs are assigned densely from zero and there is no removal, so
// every per-operator book is a slice indexed by OpID — the scheduler sits
// on these lookups millions of times per submission and dense addressing
// keeps them off the map hash path.
type Graph struct {
	ops []*Operator // index == OpID
	out [][]Edge    // index == OpID
	in  [][]Edge    // index == OpID

	// seen and stack are Connect's cycle-check scratch, kept between calls
	// so that building a graph edge by edge does not allocate both per
	// edge. Clone does not copy them.
	seen  []bool
	stack []OpID
}

// New returns an empty dataflow graph.
func New() *Graph {
	return &Graph{}
}

// Grow reserves room for n more operators, so that the Adds that follow do
// not regrow the per-operator books one append at a time. n <= 0 does
// nothing.
func (g *Graph) Grow(n int) {
	if n <= 0 {
		return
	}
	g.ops = slices.Grow(g.ops, n)
	g.out = slices.Grow(g.out, n)
	g.in = slices.Grow(g.in, n)
}

// Add inserts op into the graph, assigning and returning its ID.
// The Operator is copied; the caller keeps ownership of the argument.
func (g *Graph) Add(op Operator) OpID {
	id := OpID(len(g.ops))
	op.ID = id
	g.ops = append(g.ops, &op)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

func (g *Graph) valid(id OpID) bool { return id >= 0 && int(id) < len(g.ops) }

// Connect adds a flow edge carrying size MB from one operator to another.
// It returns an error if either endpoint is unknown, if the edge would be a
// self-loop, or if it would create a cycle.
func (g *Graph) Connect(from, to OpID, size float64) error {
	if !g.valid(from) {
		return fmt.Errorf("dataflow: unknown source operator %d", from)
	}
	if !g.valid(to) {
		return fmt.Errorf("dataflow: unknown target operator %d", to)
	}
	if from == to {
		return fmt.Errorf("dataflow: self-loop on operator %d", from)
	}
	if size < 0 {
		return fmt.Errorf("dataflow: negative edge size %g", size)
	}
	if g.reaches(to, from) {
		return fmt.Errorf("dataflow: edge %d->%d would create a cycle", from, to)
	}
	e := Edge{From: from, To: to, Size: size}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	return nil
}

// reaches reports whether to is reachable from from.
func (g *Graph) reaches(from, to OpID) bool {
	if from == to {
		return true
	}
	if cap(g.seen) < len(g.ops) {
		g.seen = make([]bool, len(g.ops), cap(g.ops))
	}
	g.seen = g.seen[:len(g.ops)]
	clear(g.seen)
	found := false
	stack := append(g.stack[:0], from)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			found = true
			break
		}
		if g.seen[n] {
			continue
		}
		g.seen[n] = true
		for _, e := range g.out[n] {
			stack = append(stack, e.To)
		}
	}
	g.stack = stack[:0]
	return found
}

// Op returns the operator with the given ID, or nil if it does not exist.
// The returned pointer aliases graph state; mutate with care.
func (g *Graph) Op(id OpID) *Operator {
	if !g.valid(id) {
		return nil
	}
	return g.ops[id]
}

// Len returns the number of operators.
func (g *Graph) Len() int { return len(g.ops) }

// Ops returns all operator IDs in insertion order.
func (g *Graph) Ops() []OpID {
	ids := make([]OpID, len(g.ops))
	for i := range ids {
		ids[i] = OpID(i)
	}
	return ids
}

// In returns the incoming edges of id.
func (g *Graph) In(id OpID) []Edge {
	if !g.valid(id) {
		return nil
	}
	return g.in[id]
}

// Out returns the outgoing edges of id.
func (g *Graph) Out(id OpID) []Edge {
	if !g.valid(id) {
		return nil
	}
	return g.out[id]
}

// ErrCycle is returned by TopoSort if the graph contains a cycle. Connect
// prevents cycles, so this can only happen through direct state corruption.
var ErrCycle = errors.New("dataflow: graph contains a cycle")

// TopoSort returns the operators in a topological order. Among operators
// whose dependencies are equally satisfied, insertion order is preserved,
// so the result is deterministic.
func (g *Graph) TopoSort() ([]OpID, error) {
	// sorted is also the FIFO of ready operators: those before i are
	// emitted, the rest wait their turn.
	indeg := make([]int, len(g.ops))
	sorted := make([]OpID, 0, len(g.ops))
	for id := range g.ops {
		indeg[id] = len(g.in[id])
		if indeg[id] == 0 {
			sorted = append(sorted, OpID(id))
		}
	}
	for i := 0; i < len(sorted); i++ {
		for _, e := range g.out[sorted[i]] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				sorted = append(sorted, e.To)
			}
		}
	}
	if len(sorted) != len(g.ops) {
		return nil, ErrCycle
	}
	return sorted, nil
}

// CriticalPath returns the length in seconds of the longest runtime-weighted
// path through the graph: a lower bound on any schedule's makespan with
// free communication.
func (g *Graph) CriticalPath() float64 {
	order, err := g.TopoSort()
	if err != nil {
		return 0
	}
	finish := make([]float64, len(g.ops))
	var longest float64
	for _, id := range order {
		var start float64
		for _, e := range g.in[id] {
			if f := finish[e.From]; f > start {
				start = f
			}
		}
		f := start + g.ops[id].Time
		finish[id] = f
		if f > longest {
			longest = f
		}
	}
	return longest
}

// Validate checks structural invariants: every edge endpoint exists, every
// operator has a positive runtime estimate and resource demands within a
// single container's capacity.
func (g *Graph) Validate() error {
	for id, op := range g.ops {
		if op.Time < 0 {
			return fmt.Errorf("dataflow: operator %d (%s) has negative time %g", id, op.Name, op.Time)
		}
		if op.CPU < 0 || op.CPU > 1 {
			return fmt.Errorf("dataflow: operator %d (%s) has CPU demand %g outside [0,1]", id, op.Name, op.CPU)
		}
		if op.Memory < 0 || op.Memory > 1 {
			return fmt.Errorf("dataflow: operator %d (%s) has memory demand %g outside [0,1]", id, op.Name, op.Memory)
		}
	}
	for from, edges := range g.out {
		for _, e := range edges {
			if !g.valid(e.To) {
				return fmt.Errorf("dataflow: edge %d->%d targets unknown operator", from, e.To)
			}
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		ops: make([]*Operator, len(g.ops)),
		out: make([][]Edge, len(g.out)),
		in:  make([][]Edge, len(g.in)),
	}
	for id, op := range g.ops {
		cp := *op
		cp.Reads = append([]string(nil), op.Reads...)
		c.ops[id] = &cp
	}
	for id, edges := range g.out {
		if edges != nil {
			c.out[id] = append([]Edge(nil), edges...)
		}
	}
	for id, edges := range g.in {
		if edges != nil {
			c.in[id] = append([]Edge(nil), edges...)
		}
	}
	return c
}

// Levels partitions the operators into dependency levels: level 0 holds the
// sources, and each operator sits one level past its deepest predecessor.
// Useful for layered workflow shapes like Montage (Fig. 5).
func (g *Graph) Levels() [][]OpID {
	order, err := g.TopoSort()
	if err != nil {
		return nil
	}
	level := make([]int, len(g.ops))
	maxLevel := 0
	for _, id := range order {
		l := 0
		for _, e := range g.in[id] {
			if lv := level[e.From] + 1; lv > l {
				l = lv
			}
		}
		level[id] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	levels := make([][]OpID, maxLevel+1)
	for _, id := range order {
		levels[level[id]] = append(levels[level[id]], id)
	}
	return levels
}

// DOT renders the graph in Graphviz dot format for debugging and
// documentation.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	ids := g.Ops()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		op := g.ops[id]
		fmt.Fprintf(&b, "  n%d [label=%q];\n", id, fmt.Sprintf("%s\\n%.1fs", op.Name, op.Time))
	}
	for _, id := range ids {
		for _, e := range g.out[id] {
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", e.From, e.To, fmt.Sprintf("%.1fMB", e.Size))
		}
	}
	b.WriteString("}\n")
	return b.String()
}
