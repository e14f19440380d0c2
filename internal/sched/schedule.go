// Package sched implements execution schedules for dataflow graphs on
// quantum-priced cloud containers, the skyline (Pareto) dataflow scheduler
// of Algorithm 4, the online interleaving variant with optional operators
// (§5.3.2), and the online load-balance baseline scheduler used in §6.3.
package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
)

// Assignment places one operator on a container for a time interval.
type Assignment struct {
	Op        dataflow.OpID
	Container int
	Start     float64 // seconds from schedule origin
	End       float64
}

// Slot is an idle period inside a leased quantum of a container:
// f(id, q, c, Sd) of §3. The slots IdleSlots returns never span quantum
// boundaries; IdleRuns merges them into ones that may.
type Slot struct {
	Container int
	Quantum   int // quantum index within the container's lease
	Start     float64
	End       float64
}

// Size returns the slot length in seconds.
func (s Slot) Size() float64 { return s.End - s.Start }

// Schedule is a (possibly partial) assignment of a graph's operators to
// containers. Containers are leased from the schedule origin (t = 0) until
// the end of the quantum containing their last operator, matching Fig. 2 of
// the paper where every used VM is charged from quantum 0.
type Schedule struct {
	Graph   *dataflow.Graph
	Pricing cloud.Pricing
	Spec    cloud.Spec
	// Types, when non-empty, enables the heterogeneous-pool extension:
	// every container carries a type index into this slice; Spec and
	// Pricing.VMPerQuantum describe type 0 semantics when Types is empty.
	Types []cloud.VMType

	// assign[id] is op id's placement, valid only when placed[id] is true.
	// Operator IDs are dense (Graph assigns them from zero), so the books
	// are OpID-indexed slices rather than a map: the skyline's candidate
	// evaluation reads them millions of times per submission and dense
	// addressing keeps the hot path off map hashing. The slices grow
	// lazily because optional index-build ops join the graph after the
	// schedule is created.
	assign  []Assignment
	placed  []bool
	nPlaced int
	// conts[c] is container c: its ops and its books.
	conts []container
	// quanta is the sum over used containers of leased quanta times the
	// integer part of the type's weight, and used the number of used
	// containers. When every weight is an integer (integral), quanta is
	// MoneyQuanta exactly.
	quanta, used int
	// idleCap sizes the next IdleSlots result: the previous call's slot
	// count, a pure capacity hint with no correctness role.
	idleCap int
	// Makespan cache over the non-optional ops: earliest start, latest end
	// and count. Maintained incrementally by make; invalidated by
	// destructive edits (Repair).
	msFirst, msLast float64
	msCount         int
	msValid         bool
	// The §5.3.1 books over the used containers' seqIdle, valid when
	// idleOK: idle1 the largest, idleTop a container holding it (-1 while
	// idle1 is 0) and idle2 the largest over the containers but idleTop (0
	// if none). MaxSequentialIdle reads idle1, and seqIdleAfter the best
	// container a move leaves alone, in O(1). make keeps them; a move whose
	// container is walked afresh, or whose container held idle1 or idle2
	// and loses it, leaves them stale until MaxSequentialIdle recounts.
	idle1, idle2 float64
	idleTop      int
	idleOK       bool
}

// container is one container of a schedule: its ops ordered by start time
// and the books make and Repair keep, so that probe and plan read a
// container in O(1). The zero value is a container not yet opened.
type container struct {
	ops []dataflow.OpID
	// typ is the index into Types the container is leased as (0 if untyped).
	typ int
	// lease is the leased quanta, flowEnd the latest end among the dataflow
	// ops (0 without one) and builds the number of index-build ops.
	lease   int
	flowEnd float64
	builds  int
	// seqIdle memoizes the longest contiguous idle run (-1 = stale), and
	// walk, valid with it, is the idle walk after the last op, the tail to
	// the lease end not walked: an op appended last resumes it (make,
	// seqIdleAfter) instead of walking the container again.
	seqIdle float64
	walk    idleWalk
}

// NewSchedule returns an empty schedule for g.
func NewSchedule(g *dataflow.Graph, pricing cloud.Pricing, spec cloud.Spec) *Schedule {
	n := g.Len()
	return &Schedule{
		Graph:   g,
		Pricing: pricing,
		Spec:    spec,
		assign:  make([]Assignment, n),
		placed:  make([]bool, n),
		msValid: true,
		idleTop: -1,
		idleOK:  true,
	}
}

// isPlaced reports whether op currently holds an assignment.
func (s *Schedule) isPlaced(op dataflow.OpID) bool {
	return op >= 0 && int(op) < len(s.placed) && s.placed[op]
}

// growOps extends the assignment books to cover every graph operator;
// build-op injection grows the graph after the schedule exists.
func (s *Schedule) growOps() {
	if n := s.Graph.Len(); len(s.assign) < n {
		for len(s.assign) < n {
			s.assign = append(s.assign, Assignment{})
			s.placed = append(s.placed, false)
		}
	}
}

// setAssign records op's placement in the dense books.
func (s *Schedule) setAssign(op dataflow.OpID, a Assignment) {
	if int(op) >= len(s.assign) {
		s.growOps()
	}
	s.assign[op] = a
	if !s.placed[op] {
		s.placed[op] = true
		s.nPlaced++
	}
}

// clearAssign removes op's placement from the dense books.
func (s *Schedule) clearAssign(op dataflow.OpID) {
	if s.isPlaced(op) {
		s.placed[op] = false
		s.nPlaced--
	}
}

// ContainerType returns the VM type of container c. With no Types
// configured it synthesizes the homogeneous default from Spec and Pricing.
func (s *Schedule) ContainerType(c int) cloud.VMType { return s.vmType(s.typeIndex(c)) }

// typeIndex returns the index into Types container c is leased as: 0 for a
// container not yet opened and for an out-of-range entry.
func (s *Schedule) typeIndex(c int) int {
	ti := 0
	if c < len(s.conts) {
		ti = s.conts[c].typ
	}
	if ti < 0 || ti >= len(s.Types) {
		ti = 0
	}
	return ti
}

// vmType returns type ti of the pool, or the homogeneous default when the
// schedule has no pool.
func (s *Schedule) vmType(ti int) cloud.VMType {
	if len(s.Types) == 0 {
		return cloud.VMType{Name: "default", Spec: s.Spec, PricePerQuantum: s.Pricing.VMPerQuantum, SpeedFactor: 1}
	}
	return s.Types[ti]
}

// weight returns type ti's price per quantum relative to the baseline VM
// price: the factor MoneyQuanta charges a leased quantum of that type.
func (s *Schedule) weight(ti int) float64 {
	if len(s.Types) == 0 || s.Pricing.VMPerQuantum <= 0 {
		return 1
	}
	return s.Types[ti].PricePerQuantum / s.Pricing.VMPerQuantum
}

// integral reports whether every type weight is an integer, as it is in a
// homogeneous schedule. Then every term of MoneyQuanta is an integer, any
// summation order gives the same bits, and quanta is the sum.
func (s *Schedule) integral() bool {
	for ti := range s.Types {
		if w := s.weight(ti); w != math.Trunc(w) {
			return false
		}
	}
	return true
}

// term returns container c's contribution to quanta: its leased quanta
// times the integer part of its type's weight, 0 while it holds no op.
func (s *Schedule) term(c int) int {
	if c >= len(s.conts) || len(s.conts[c].ops) == 0 {
		return 0
	}
	return s.conts[c].lease * int(s.weight(s.typeIndex(c)))
}

// Clone returns a deep copy sharing the immutable graph.
func (s *Schedule) Clone() *Schedule {
	c := new(Schedule)
	c.CopyFrom(s)
	return c
}

// CopyFrom makes s a deep copy of src, reusing s's allocated storage: a
// pooled schedule is re-pointed at a skyline member in O(ops) time with no
// allocations once its slices have grown. It is the one place that lists
// the fields a copy carries; Clone is CopyFrom into a fresh Schedule.
func (s *Schedule) CopyFrom(src *Schedule) {
	s.Graph, s.Pricing, s.Spec, s.Types = src.Graph, src.Pricing, src.Spec, src.Types
	s.assign = append(s.assign[:0], src.assign...)
	s.placed = append(s.placed[:0], src.placed...)
	s.nPlaced = src.nPlaced
	// Containers past len(s.conts) keep their op storage for reuse, and a
	// growth copies them all into the new array at once.
	s.conts = s.conts[:cap(s.conts)]
	s.conts = slices.Grow(s.conts, max(0, len(src.conts)-len(s.conts)))[:len(src.conts)]
	for i := range src.conts {
		ops := append(s.conts[i].ops[:0], src.conts[i].ops...)
		s.conts[i] = src.conts[i]
		s.conts[i].ops = ops
	}
	s.quanta, s.used = src.quanta, src.used
	s.idleCap = src.idleCap
	s.msFirst, s.msLast, s.msCount, s.msValid = src.msFirst, src.msLast, src.msCount, src.msValid
	s.idle1, s.idle2, s.idleTop, s.idleOK = src.idle1, src.idle2, src.idleTop, src.idleOK
}

// Assignment returns the placement of op and whether it is assigned.
func (s *Schedule) Assignment(op dataflow.OpID) (Assignment, bool) {
	if !s.isPlaced(op) {
		return Assignment{}, false
	}
	return s.assign[op], true
}

// Assigned returns the number of assigned operators.
func (s *Schedule) Assigned() int { return s.nPlaced }

// Containers returns the number of containers that hold at least one op.
func (s *Schedule) Containers() int { return s.used }

// NumSlots returns len(s.conts): the highest container index ever used + 1.
func (s *Schedule) NumSlots() int { return len(s.conts) }

// ReadyTime returns the earliest time op can start on container c given its
// predecessors' finish times and inter-container transfer costs
// (edge size / network bandwidth when the producer sits elsewhere).
// It returns an error if a predecessor is unassigned.
func (s *Schedule) ReadyTime(op dataflow.OpID, c int) (float64, error) {
	in := s.gather(newInputs(), op)
	if in.missing >= 0 {
		return 0, in.unassigned()
	}
	return in.arrive[s.typeIndex(c)].at(c), nil
}

// inputs is what plan reads of an operator's inputs on one schedule: the
// first input not placed, if any, and when the placed ones have all arrived
// on a container of each type of the pool. The skyline gathers it once per
// frontier member and step, for every move it scores there; make gathers
// its own.
type inputs struct {
	op dataflow.OpID
	// missing is the first input in Graph.In order that is not placed, -1
	// if none: plan refuses the move.
	missing dataflow.OpID
	// arrive[ti] is the arrival on a container of type ti (0 without a
	// pool), whose spec paces the transfers into it.
	arrive []arrival
}

// arrival is when an operator's inputs have all arrived on a container of
// one type. An input arrives at its end on the container it ends on, and a
// transfer later on any other. A transfer takes no negative time, so the
// latest remote arrival, latest, is the ready time on every container but
// last, the one that input ends on. On last it is the later of other, the
// latest remote arrival of an input ending elsewhere, and local, the latest
// end there. Each is an arrival of the full walk or its zero start, and a
// max is exact in any order, so at reads the walk's bits.
type arrival struct {
	latest, other, local float64
	last                 int
}

// at returns the ready time on container c.
func (a *arrival) at(c int) float64 {
	if c != a.last {
		return a.latest
	}
	if a.local > a.other {
		return a.local
	}
	return a.other
}

// newInputs returns empty inputs whose storage, for a pool of at most four
// types, does not escape its caller: make and ReadyTime gather into it
// without allocating.
func newInputs() inputs {
	var arrive [4]arrival
	return inputs{arrive: arrive[:0]}
}

// gather returns op's inputs on s, written over in's storage, in one walk
// of the inputs per type.
func (s *Schedule) gather(in inputs, op dataflow.OpID) inputs {
	in.op, in.missing, in.arrive = op, -1, in.arrive[:0]
	edges := s.Graph.In(op)
	for ti := range max(1, len(s.Types)) {
		spec := &s.Spec
		if len(s.Types) > 0 {
			spec = &s.Types[ti].Spec
		}
		a := arrival{last: -1}
		for _, e := range edges {
			if !s.isPlaced(e.From) {
				in.missing = e.From
				return in
			}
			p := &s.assign[e.From]
			t := p.End + spec.TransferSeconds(e.Size)
			switch {
			case p.Container == a.last:
				if t > a.latest {
					a.latest = t
				}
				if p.End > a.local {
					a.local = p.End
				}
			case t > a.latest:
				// Every earlier input arrived by a.latest, and one did then on
				// a.last, another container: that is other now. An earlier
				// end on p's container is no later, so local starts here.
				a.other, a.latest, a.last, a.local = a.latest, t, p.Container, p.End
			case t > a.other:
				a.other = t
			}
		}
		in.arrive = append(in.arrive, a)
	}
	return in
}

// unassigned is plan's error for a move whose inputs are not all placed.
func (in *inputs) unassigned() error {
	return fmt.Errorf("sched: predecessor %d of %d unassigned", in.missing, in.op)
}

// lastEnd returns the finish time of the last op on container c (0 if none).
func (s *Schedule) lastEnd(c int) float64 {
	if c >= len(s.conts) || len(s.conts[c].ops) == 0 {
		return 0
	}
	last := s.conts[c].ops[len(s.conts[c].ops)-1]
	return s.assign[last].End
}

// ensureContainer grows the container list to include index c.
func (s *Schedule) ensureContainer(c int) {
	for len(s.conts) <= c {
		s.conts = append(s.conts, container{})
	}
}

// retally recomputes container c's books from its ops after an edit that
// removed some, and the schedule's totals from every container's books.
func (s *Schedule) retally(c int) {
	s.conts[c].lease = s.Pricing.Quanta(s.lastEnd(c))
	s.conts[c].flowEnd, s.conts[c].builds = 0, 0
	for _, id := range s.conts[c].ops {
		if s.Graph.Op(id).Optional {
			s.conts[c].builds++
		} else if e := s.assign[id].End; e > s.conts[c].flowEnd {
			s.conts[c].flowEnd = e
		}
	}
	s.conts[c].seqIdle, s.idleOK = -1, false
	s.quanta, s.used = 0, 0
	for k := range s.conts {
		if len(s.conts[k].ops) > 0 {
			s.quanta += s.term(k)
			s.used++
		}
	}
}

// noteAssigned folds a new assignment into the makespan cache.
func (s *Schedule) noteAssigned(a Assignment, optional bool) {
	if optional || !s.msValid {
		return
	}
	if s.msCount == 0 || a.Start < s.msFirst {
		s.msFirst = a.Start
	}
	if s.msCount == 0 || a.End > s.msLast {
		s.msLast = a.End
	}
	s.msCount++
}

// extent returns the non-optional ops' earliest start, latest end and
// count: the makespan cache when it is valid, a walk of the books when not.
func (s *Schedule) extent() (first, last float64, count int) {
	if s.msValid {
		return s.msFirst, s.msLast, s.msCount
	}
	first = math.Inf(1)
	for id := range s.assign {
		if !s.placed[id] || s.Graph.Op(dataflow.OpID(id)).Optional {
			continue
		}
		a := s.assign[id]
		if count == 0 || a.Start < first {
			first = a.Start
		}
		if count == 0 || a.End > last {
			last = a.End
		}
		count++
	}
	return first, last, count
}

// opsOn returns container c's ops in start order; none for a container
// not yet opened.
func (s *Schedule) opsOn(c int) []dataflow.OpID {
	if c < len(s.conts) {
		return s.conts[c].ops
	}
	return nil
}

// plan returns where mv puts its operator, without writing to s: the index
// into Types the container runs it as and the interval it occupies, or why
// the move is illegal. It is the one statement of the placement rule: make
// applies a plan, probe prices one and seqIdleAfter measures one. in holds
// mv.op's inputs gathered on s.
//
// mv.typeIdx >= 0 leases the container as that type of the pool. That is
// refused without a pool, for a type outside it, and for a container in use
// as another type, whose operators were timed at that type's speed.
//
// An append starts once the op's inputs are ready and the container's last
// op that can delay it has finished: a dataflow op queues behind dataflow
// ops only, because it preempts the builds its interval overlaps
// (preempts), and a build queues behind every op. A placement starts at
// mv.start, which must be no earlier than the ready time and must leave the
// interval clear of the container's ops.
func (s *Schedule) plan(mv move, in *inputs) (typeIdx int, start, end float64, err error) {
	o := s.Graph.Op(mv.op)
	c := mv.cont
	switch {
	case o == nil:
		return 0, 0, 0, fmt.Errorf("sched: unknown op %d", mv.op)
	case s.isPlaced(mv.op):
		return 0, 0, 0, fmt.Errorf("sched: op %d already assigned", mv.op)
	case c < 0:
		return 0, 0, 0, fmt.Errorf("sched: container %d out of range", c)
	}
	ops := s.opsOn(c)
	typeIdx = s.typeIndex(c)
	if mv.typeIdx >= 0 {
		switch {
		case len(s.Types) == 0:
			return 0, 0, 0, fmt.Errorf("sched: schedule has no type pool")
		case mv.typeIdx >= len(s.Types):
			return 0, 0, 0, fmt.Errorf("sched: type %d out of range", mv.typeIdx)
		case len(ops) > 0 && s.conts[c].typ != mv.typeIdx:
			return 0, 0, 0, fmt.Errorf("sched: container %d already in use", c)
		}
		typeIdx = mv.typeIdx
	}
	speed := 1.0
	if len(s.Types) > 0 {
		speed = s.Types[typeIdx].SpeedFactor
	}
	if in.missing >= 0 {
		return 0, 0, 0, in.unassigned()
	}
	// The type's spec paces the transfers into the container.
	ready := in.arrive[typeIdx].at(c)
	dur := o.Time / speed
	if mv.place {
		start, end = mv.start, mv.start+dur
		if start+1e-9 < ready {
			return 0, 0, 0, fmt.Errorf("sched: op %d cannot start at %g before ready time %g", mv.op, start, ready)
		}
		pos := sort.Search(len(ops), func(i int) bool { return s.assign[ops[i]].Start >= start })
		if pos > 0 && s.assign[ops[pos-1]].End > start+1e-9 {
			return 0, 0, 0, fmt.Errorf("sched: op %d overlaps predecessor interval on container %d", mv.op, c)
		}
		if pos < len(ops) && s.assign[ops[pos]].Start < end-1e-9 {
			return 0, 0, 0, fmt.Errorf("sched: op %d overlaps successor interval on container %d", mv.op, c)
		}
		return typeIdx, start, end, nil
	}
	var tail float64
	switch {
	case o.Optional:
		tail = s.lastEnd(c)
	case c < len(s.conts):
		tail = s.conts[c].flowEnd
	}
	start = max(ready, tail)
	return typeIdx, start, start + dur, nil
}

// preempts reports whether a dataflow op appended over [start, end) evicts
// op id from the container: id is an index build the interval overlaps. At
// runtime priority -1 builds yield to dataflow operators (§6.1). Only a
// dataflow append preempts: a build queues behind every op, and a placement
// that overlaps an op is refused.
func (s *Schedule) preempts(id dataflow.OpID, start, end float64) bool {
	a := s.assign[id]
	return s.Graph.Op(id).Optional && a.End > start+1e-9 && a.Start < end-1e-9
}

// make applies mv, the one way an operator joins a schedule: the op takes
// the type and interval plan gives it, a dataflow append evicts the builds
// it preempts, and the container's ops stay in start order (an eviction or
// a placement can put the new op before a later build). A refused move
// leaves s as it was.
func (s *Schedule) make(mv move) (Assignment, error) {
	in := s.gather(newInputs(), mv.op)
	ti, start, end, err := s.plan(mv, &in)
	if err != nil {
		return Assignment{}, err
	}
	c, optional := mv.cont, s.Graph.Op(mv.op).Optional
	s.ensureContainer(c)
	ops := s.conts[c].ops
	// An op that goes last resumes the container's idle walk; after any
	// other move the container is walked afresh when next read.
	w, resume := s.walkBefore(c, start, !mv.place && !optional)
	old := s.conts[c].seqIdle
	if len(ops) == 0 {
		s.used++
		old = -1
	}
	s.quanta -= s.term(c)
	s.conts[c].typ = ti
	if !mv.place && !optional && s.conts[c].builds > 0 {
		kept := ops[:0]
		for _, id := range ops {
			if s.preempts(id, start, end) {
				s.clearAssign(id)
				s.conts[c].builds--
				continue
			}
			kept = append(kept, id)
		}
		ops = kept
	}
	a := Assignment{Op: mv.op, Container: c, Start: start, End: end}
	s.setAssign(mv.op, a)
	pos := sort.Search(len(ops), func(i int) bool { return s.assign[ops[i]].Start >= start })
	ops = append(ops, 0)
	copy(ops[pos+1:], ops[pos:])
	ops[pos] = mv.op
	s.conts[c].ops = ops
	if optional {
		s.conts[c].builds++
	} else if end > s.conts[c].flowEnd {
		s.conts[c].flowEnd = end
	}
	s.conts[c].lease = s.Pricing.Quanta(s.lastEnd(c))
	s.quanta += s.term(c)
	if resume {
		w.busy(a, s.Pricing.QuantumSeconds)
		v := w.total(s.Pricing)
		s.conts[c].walk, s.conts[c].seqIdle = w, v
		s.noteSeqIdle(c, old, v)
	} else {
		s.conts[c].seqIdle, s.idleOK = -1, false
	}
	s.noteAssigned(a, optional)
	return a, nil
}

// Append assigns op to container c at the earliest time it can start there
// (list scheduling) and evicts the index builds it preempts: see plan.
func (s *Schedule) Append(op dataflow.OpID, c int) (Assignment, error) {
	return s.make(move{op: op, cont: c, typeIdx: -1})
}

// AppendAs is Append onto container c leased as type ti of the pool, the
// typed lease the skyline gives a fresh container. Only check's reference
// skyline calls it: the skyline itself makes its moves directly.
func (s *Schedule) AppendAs(op dataflow.OpID, c, ti int) (Assignment, error) {
	return s.make(move{op: op, cont: c, typeIdx: ti})
}

// PlaceAt assigns op to container c at exactly start, provided the op's
// inputs are ready by then and the interval overlaps none of c's ops. It
// drops index-build operators into idle slots.
func (s *Schedule) PlaceAt(op dataflow.OpID, c int, start float64) (Assignment, error) {
	return s.make(move{op: op, cont: c, typeIdx: -1, start: start, place: true})
}

// probe writes into cand the point make(mv) followed by point() would read
// and the interval plan gives the op, and reports whether the move is
// legal, without writing to s; in holds mv.op's inputs gathered on s. The
// skyline scores every candidate this way, in its slot of the candidate
// buffer; only a Pareto survivor makes its move, on its source or a copy
// (scope.materialize). FuzzProbeEqualsApply holds the two to the bit.
func (s *Schedule) probe(mv move, in *inputs, cand *candidate) bool {
	ti, start, end, err := s.plan(mv, in)
	if err != nil {
		return false
	}
	c := mv.cont
	optional := s.Graph.Op(mv.op).Optional
	ops := s.opsOn(c)
	evicted := 0
	last := dataflow.OpID(-1) // the last op c keeps in start order, the new one aside
	if len(ops) > 0 {
		last = ops[len(ops)-1]
	}
	// Only a dataflow append onto a container with builds evicts any.
	if !mv.place && !optional && len(ops) > 0 && s.conts[c].builds > 0 {
		last = -1
		for _, id := range ops {
			if s.preempts(id, start, end) {
				evicted++
				continue
			}
			last = id
		}
	}
	// The new op goes before the first kept op starting at or after it, so
	// it ends the lease unless the last kept op starts no earlier.
	leaseEnd := end
	if last >= 0 && s.assign[last].Start >= start {
		leaseEnd = s.assign[last].End
	}
	p := &cand.p
	*p = point{
		money:   s.money(c, s.Pricing.Quanta(leaseEnd), ti),
		ops:     int32(s.nPlaced + 1 - evicted),
		conts:   int32(s.used),
		seqIdle: -1,
	}
	if len(ops) == 0 {
		p.conts++
	}
	first, lastEnd, count := s.extent()
	if !optional {
		if count == 0 || start < first {
			first = start
		}
		if count == 0 || end > lastEnd {
			lastEnd = end
		}
		count++
	}
	if count > 0 {
		p.time = lastEnd - first
	} else if p.time = s.TotalSpan(); end > p.time {
		// Only optional ops are placed: Makespan falls back to TotalSpan.
		p.time = end
	}
	cand.start, cand.end = start, end
	return true
}

// Makespan returns td(Sd): the time from the first non-optional operator's
// start to the last non-optional operator's finish (§3). Optional
// index-build operators do not count: they must not affect the dataflow.
// For schedules containing only optional ops, all ops count.
func (s *Schedule) Makespan() float64 {
	if !s.msValid {
		s.msFirst, s.msLast, s.msCount = s.extent()
		s.msValid = true
	}
	if s.msCount == 0 {
		return s.TotalSpan()
	}
	return s.msLast - s.msFirst
}

// TotalSpan returns the time from origin to the last assigned op's finish,
// counting optional ops too.
func (s *Schedule) TotalSpan() float64 {
	var last float64
	for id, a := range s.assign {
		if s.placed[id] && a.End > last {
			last = a.End
		}
	}
	return last
}

// MoneyQuanta returns md(Sd) in baseline-price quanta: the sum over used
// containers of the leased quanta, weighted by each container type's price
// relative to the baseline VM price (§3 measures monetary cost in quanta so
// time and money share a unit; in a heterogeneous pool a quantum of a
// pricier type counts proportionally more).
func (s *Schedule) MoneyQuanta() float64 { return s.money(-1, 0, 0) }

// money returns the leased quanta times type weight summed over the used
// containers. Container sub, when >= 0, counts subQ quanta of type subT in
// place of its own term, opened or not: that is how probe prices a move it
// does not make. With integral weights every partial sum is an exact
// integer, so the running total with sub's term swapped is the bits of the
// ordered sum; other pools sum in container order, as MoneyQuanta does, so
// the two agree to the bit either way.
func (s *Schedule) money(sub, subQ, subT int) float64 {
	if s.integral() {
		total := s.quanta
		if sub >= 0 {
			total += subQ*int(s.weight(subT)) - s.term(sub)
		}
		return float64(total)
	}
	var total float64
	for c := 0; c < max(len(s.conts), sub+1); c++ {
		switch {
		case c == sub:
			total += float64(subQ) * s.weight(subT)
		case c < len(s.conts) && len(s.conts[c].ops) > 0:
			total += float64(s.conts[c].lease) * s.weight(s.typeIndex(c))
		}
	}
	return total
}

// IdleSlots returns every idle period inside the leased quanta, clipped at
// quantum boundaries (the fragmentation of the schedule, §3), sorted by
// container then start time.
func (s *Schedule) IdleSlots() []Slot {
	// idleCap remembers the previous result size: the interleaver calls
	// IdleSlots repeatedly on a near-constant schedule, so sizing the
	// result up front replaces log2(n) growth reallocations with one.
	out := s.appendIdleSlots(make([]Slot, 0, max(s.idleCap, 8)))
	s.idleCap = len(out)
	return out
}

// appendIdleSlots appends IdleSlots' result to out and returns it.
func (s *Schedule) appendIdleSlots(out []Slot) []Slot {
	q := s.Pricing.QuantumSeconds
	for c := range s.conts {
		if len(s.conts[c].ops) == 0 {
			continue
		}
		leaseEnd := float64(s.conts[c].lease) * q
		// Build the busy intervals and walk the gaps.
		cursor := 0.0
		for _, id := range s.conts[c].ops {
			a := s.assign[id]
			if a.Start > cursor {
				out = appendIdle(out, c, q, cursor, a.Start)
			}
			if a.End > cursor {
				cursor = a.End
			}
		}
		if cursor < leaseEnd {
			out = appendIdle(out, c, q, cursor, leaseEnd)
		}
	}
	return out
}

// IdleRuns merges the schedule's per-quantum idle slots into contiguous
// runs, sorted by container then start: both quanta either side of an
// interior boundary are already leased, so a build operator may span it, as
// A1 does in Fig. 2c, but a run never extends a container's lease. A
// returned Slot may therefore cross quantum boundaries; its Quantum is that
// of its first piece.
func (s *Schedule) IdleRuns() []Slot { return mergeRuns(s.IdleSlots()) }

// mergeRuns merges IdleSlots' slots into IdleRuns' runs in place.
func mergeRuns(slots []Slot) []Slot {
	runs := slots[:0]
	for _, sl := range slots {
		if n := len(runs); n > 0 &&
			runs[n-1].Container == sl.Container &&
			math.Abs(runs[n-1].End-sl.Start) < 1e-9 {
			runs[n-1].End = sl.End
			continue
		}
		runs = append(runs, sl)
	}
	return runs
}

// appendIdle splits the idle interval [from, to) on container c at quantum
// boundaries and appends the pieces to out.
func appendIdle(out []Slot, c int, q, from, to float64) []Slot {
	for from < to-1e-9 {
		qi := quantumIndex(from, q)
		qEnd := math.Min(float64(qi+1)*q, to)
		if qEnd-from > 1e-9 {
			out = append(out, Slot{Container: c, Quantum: qi, Start: from, End: qEnd})
		}
		from = qEnd
	}
	return out
}

// quantumIndex returns the quantum containing time t. When t sits exactly on
// the float representing boundary k*q, dividing can round to just under k and
// truncate to k-1, which would make the k-1 piece end at t itself and the
// boundary walks above loop forever; nudging the index until (qi+1)*q clears
// t keeps the walk advancing and the piece labeled with its true quantum.
func quantumIndex(t, q float64) int {
	qi := int(t / q)
	for float64(qi+1)*q <= t {
		qi++
	}
	return qi
}

// Fragmentation returns the total idle time in seconds across all leased
// quanta: compute time that is paid for but unused.
func (s *Schedule) Fragmentation() float64 {
	var total float64
	for _, slot := range s.IdleSlots() {
		total += slot.Size()
	}
	return total
}

// MaxSequentialIdle returns the longest contiguous idle period (crossing
// quantum boundaries) on any container — the tie-break of §5.3.1: among
// schedules with equal time and money the one with the most sequential idle
// compute time is preferred, because index-build operators fit there.
func (s *Schedule) MaxSequentialIdle() float64 {
	// Idle runs never span containers, so the maximum is the max over the
	// per-container runs, each memoized until its container changes, and
	// the books keep the largest two.
	if !s.idleOK {
		s.idle1, s.idle2, s.idleTop, s.idleOK = 0, 0, -1, true
		for c := range s.conts {
			k := &s.conts[c]
			if len(k.ops) == 0 {
				continue
			}
			if k.seqIdle < 0 {
				k.walk = s.contWalk(c, Assignment{Op: -1}, false)
				k.seqIdle = k.walk.total(s.Pricing)
			}
			s.noteSeqIdle(c, -1, k.seqIdle)
		}
	}
	return s.idle1
}

// noteSeqIdle folds container c's new run v into the books, old being its
// previous one (-1 if c held no op). A container that held idle1 or idle2
// and falls below the other books' values leaves them stale: the third
// largest is not kept.
func (s *Schedule) noteSeqIdle(c int, old, v float64) {
	switch {
	case !s.idleOK:
	case c == s.idleTop && v >= s.idle2:
		s.idle1 = v
	case c == s.idleTop:
		s.idleOK = false
	case v > s.idle1:
		s.idle1, s.idle2, s.idleTop = v, s.idle1, c
	case v < old && old == s.idle2:
		s.idleOK = false
	case v > s.idle2:
		s.idle2 = v
	}
}

// seqIdleAfter returns what MaxSequentialIdle would read after make(mv),
// without writing to s, for a move plan puts at [start, end). A move changes
// only its own container: an op that goes last resumes the container's
// walk, any other move walks it with the op in it (contWalk), and the best
// of the other containers is read from the books, or while they are stale
// from the memo (walked, not stored, where stale).
func (s *Schedule) seqIdleAfter(mv move, start, end float64) float64 {
	in := Assignment{Op: mv.op, Container: mv.cont, Start: start, End: end}
	evicts := !mv.place && !s.Graph.Op(mv.op).Optional
	var best float64
	if w, ok := s.walkBefore(mv.cont, start, evicts); ok {
		w.busy(in, s.Pricing.QuantumSeconds)
		best = w.total(s.Pricing)
	} else {
		best = s.contWalk(mv.cont, in, evicts).total(s.Pricing)
	}
	if s.idleOK {
		other := s.idle1
		if mv.cont == s.idleTop {
			other = s.idle2
		}
		if other > best {
			best = other
		}
		return best
	}
	for c := range s.conts {
		if c == mv.cont || len(s.conts[c].ops) == 0 {
			continue
		}
		v := s.conts[c].seqIdle
		if v < 0 {
			v = s.contWalk(c, Assignment{Op: -1}, false).total(s.Pricing)
		}
		if v > best {
			best = v
		}
	}
	return best
}

// walkBefore returns container c's idle walk before an op starting at
// start, and whether the op goes last, so that the walk can resume: c
// holds no op, or its walk is fresh, its last op starts before start and,
// when evicts (a dataflow append, which preempts the builds it overlaps),
// it holds no build.
func (s *Schedule) walkBefore(c int, start float64, evicts bool) (idleWalk, bool) {
	if c >= len(s.conts) || len(s.conts[c].ops) == 0 {
		return newWalk(), true
	}
	k := &s.conts[c]
	if k.seqIdle < 0 || s.assign[k.ops[len(k.ops)-1]].Start >= start || evicts && k.builds > 0 {
		return idleWalk{}, false
	}
	return k.walk, true
}

// contWalk is the full walk of container c's busy intervals, the tail to
// the lease end excepted, and the one way to walk a container besides
// resuming its walk. With in.Op >= 0 it reads c as make would leave it with
// in placed: in goes before the first op starting at or after it, and the
// builds it preempts are skipped when evicts.
func (s *Schedule) contWalk(c int, in Assignment, evicts bool) idleWalk {
	w, q := newWalk(), s.Pricing.QuantumSeconds
	pending := in.Op >= 0
	for _, id := range s.opsOn(c) {
		if evicts && s.preempts(id, in.Start, in.End) {
			continue
		}
		a := s.assign[id]
		if pending && a.Start >= in.Start {
			w.busy(in, q)
			pending = false
		}
		w.busy(a, q)
	}
	if pending {
		w.busy(in, q)
	}
	return w
}

// idleWalk folds a container's busy intervals, in start order, into its
// longest contiguous idle run without materializing a slot: each gap is
// split at quantum boundaries of q seconds as appendIdle splits it, pieces
// of 1e-9 s or less are dropped, and pieces that meet merge as IdleRuns
// merges them. The zero value has walked nothing but must start with
// prevEnd at -Inf (newWalk).
type idleWalk struct {
	cursor, last float64 // the latest end so far; the end of the latest interval
	run, best    float64 // the current run and the longest one
	prevEnd      float64 // where the current run ends
}

func newWalk() idleWalk { return idleWalk{prevEnd: math.Inf(-1)} }

// total returns the longest run once the idle tail to the end of the lease
// the last interval ends in is walked too, leaving w as it was.
func (w idleWalk) total(p cloud.Pricing) float64 {
	q := p.QuantumSeconds
	w.idle(w.cursor, float64(p.Quanta(w.last))*q, q)
	return w.best
}

func (w *idleWalk) busy(a Assignment, q float64) {
	w.idle(w.cursor, a.Start, q)
	if a.End > w.cursor {
		w.cursor = a.End
	}
	w.last = a.End
}

func (w *idleWalk) idle(from, to, q float64) {
	for from < to-1e-9 {
		qi := quantumIndex(from, q)
		qEnd := math.Min(float64(qi+1)*q, to)
		if qEnd-from > 1e-9 {
			if math.Abs(w.prevEnd-from) < 1e-9 {
				w.run += qEnd - from
			} else {
				w.run = qEnd - from
			}
			if w.run > w.best {
				w.best = w.run
			}
			w.prevEnd = qEnd
		}
		from = qEnd
	}
}

// Validate checks that assignments respect dependency and transfer
// constraints, that no two ops overlap on a container, and that every
// assigned op's interval is consistent.
func (s *Schedule) Validate() error {
	for c, k := range s.conts {
		ops := k.ops
		for i, id := range ops {
			a := s.assign[id]
			if a.Container != c {
				return fmt.Errorf("sched: op %d listed on container %d but assigned to %d", id, c, a.Container)
			}
			if a.End < a.Start {
				return fmt.Errorf("sched: op %d has negative duration", id)
			}
			if i > 0 {
				prev := s.assign[ops[i-1]]
				if prev.End > a.Start+1e-9 {
					return fmt.Errorf("sched: ops %d and %d overlap on container %d", ops[i-1], id, c)
				}
			}
		}
	}
	for idx := range s.assign {
		if !s.placed[idx] {
			continue
		}
		id, a := dataflow.OpID(idx), s.assign[idx]
		for _, e := range s.Graph.In(id) {
			if !s.isPlaced(e.From) {
				continue // partial schedule
			}
			pa := s.assign[e.From]
			min := pa.End
			if pa.Container != a.Container {
				min += s.ContainerType(a.Container).Spec.TransferSeconds(e.Size)
			}
			if a.Start+1e-6 < min {
				return fmt.Errorf("sched: op %d starts at %g before dependency-ready time %g", id, a.Start, min)
			}
		}
	}
	return nil
}

// Assignments returns all assignments sorted by container then start.
func (s *Schedule) Assignments() []Assignment {
	return s.AssignmentsAppend(nil)
}

// AssignmentsAppend fills buf (reusing its capacity; buf may be nil) with
// all assignments sorted by container, then start, then op, and returns
// the resulting slice. The executor replays thousands of schedules per
// experiment and reuses one buffer across calls instead of allocating.
func (s *Schedule) AssignmentsAppend(buf []Assignment) []Assignment {
	buf = buf[:0]
	for id, a := range s.assign {
		if s.placed[id] {
			buf = append(buf, a)
		}
	}
	slices.SortFunc(buf, cmpAssignment)
	return buf
}

// cmpAssignment orders assignments by container, then start, then op: a
// strict total order, as every op is placed once.
func cmpAssignment(a, b Assignment) int {
	if c := cmp.Compare(a.Container, b.Container); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.Op, b.Op)
}

// ContainerOps returns the number of operators currently placed on
// container c (zero for out-of-range indices).
func (s *Schedule) ContainerOps(c int) int {
	if c < 0 || c >= len(s.conts) {
		return 0
	}
	return len(s.conts[c].ops)
}
