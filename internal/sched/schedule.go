// Package sched implements execution schedules for dataflow graphs on
// quantum-priced cloud containers, the skyline (Pareto) dataflow scheduler
// of Algorithm 4, the online interleaving variant with optional operators
// (§5.3.2), and the online load-balance baseline scheduler used in §6.3.
package sched

import (
	"fmt"
	"math"
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
	// conts[c] lists the ops on container c ordered by start time.
	conts [][]dataflow.OpID
	// contType[c] is the index into Types of container c (0 if untyped).
	contType []int

	// leaseQ memoizes the leased quanta per container (-1 = stale).
	// IdleSlots and the seq-idle walk fill it; MoneyQuanta and probe read
	// it and recompute a stale entry without storing it, so scoring a
	// candidate writes nothing to the schedule it reads.
	leaseQ []int
	// seqIdleQ memoizes per container the longest contiguous idle run
	// (-1 = stale), invalidated together with leaseQ. The skyline's
	// §5.3.1 tie-break calls MaxSequentialIdle after single-container
	// speculative moves, so only the touched container's runs are
	// re-walked instead of the whole fleet's.
	seqIdleQ []float64
	// idleCap sizes the next IdleSlots result: the previous call's slot
	// count, a pure capacity hint with no correctness role.
	idleCap int
	// Makespan cache over the non-optional ops: earliest start, latest end
	// and count. Maintained incrementally by Append/PlaceAt/Undo;
	// invalidated by destructive edits (Repair).
	msFirst, msLast float64
	msCount         int
	msValid         bool
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
	if c < len(s.contType) {
		ti = s.contType[c]
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

// SetContainerType fixes the type of container c before (or at) its first
// use. Retyping a container that already holds operators is an error: its
// assignments were computed under the old speed.
func (s *Schedule) SetContainerType(c, typeIdx int) error {
	if len(s.Types) == 0 {
		return fmt.Errorf("sched: schedule has no type pool")
	}
	if typeIdx < 0 || typeIdx >= len(s.Types) {
		return fmt.Errorf("sched: type %d out of range", typeIdx)
	}
	s.ensureContainer(c)
	if len(s.conts[c]) > 0 && s.contType[c] != typeIdx {
		return fmt.Errorf("sched: container %d already in use", c)
	}
	s.contType[c] = typeIdx
	s.invalidateLease(c)
	return nil
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
	for len(s.conts) < len(src.conts) {
		s.conts = append(s.conts, nil)
	}
	s.conts = s.conts[:len(src.conts)]
	for i := range src.conts {
		s.conts[i] = append(s.conts[i][:0], src.conts[i]...)
	}
	s.contType = append(s.contType[:0], src.contType...)
	s.leaseQ = append(s.leaseQ[:0], src.leaseQ...)
	s.seqIdleQ = append(s.seqIdleQ[:0], src.seqIdleQ...)
	s.idleCap = src.idleCap
	s.msFirst, s.msLast, s.msCount, s.msValid = src.msFirst, src.msLast, src.msCount, src.msValid
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
func (s *Schedule) Containers() int {
	n := 0
	for _, ops := range s.conts {
		if len(ops) > 0 {
			n++
		}
	}
	return n
}

// NumSlots returns len(s.conts): the highest container index ever used + 1.
func (s *Schedule) NumSlots() int { return len(s.conts) }

// ReadyTime returns the earliest time op can start on container c given its
// predecessors' finish times and inter-container transfer costs
// (edge size / network bandwidth when the producer sits elsewhere).
// It returns an error if a predecessor is unassigned.
func (s *Schedule) ReadyTime(op dataflow.OpID, c int) (float64, error) {
	return s.readyOn(op, c, s.ContainerType(c).Spec)
}

// readyOn is ReadyTime with container c's spec given, so a probe can ask as
// if c were already leased as another type.
func (s *Schedule) readyOn(op dataflow.OpID, c int, spec cloud.Spec) (float64, error) {
	var ready float64
	for _, e := range s.Graph.In(op) {
		if !s.isPlaced(e.From) {
			return 0, fmt.Errorf("sched: predecessor %d of %d unassigned", e.From, op)
		}
		pa := s.assign[e.From]
		t := pa.End
		if pa.Container != c {
			// The receiving container's network link paces the transfer.
			t += spec.TransferSeconds(e.Size)
		}
		if t > ready {
			ready = t
		}
	}
	return ready, nil
}

// lastEnd returns the finish time of the last op on container c (0 if none).
func (s *Schedule) lastEnd(c int) float64 {
	if c >= len(s.conts) || len(s.conts[c]) == 0 {
		return 0
	}
	last := s.conts[c][len(s.conts[c])-1]
	return s.assign[last].End
}

// ensureContainer grows the container list to include index c.
func (s *Schedule) ensureContainer(c int) {
	for len(s.conts) <= c {
		s.conts = append(s.conts, nil)
		s.contType = append(s.contType, 0)
		s.leaseQ = append(s.leaseQ, 0)     // empty container leases nothing
		s.seqIdleQ = append(s.seqIdleQ, 0) // and has no idle runs
	}
}

// invalidateLease marks container c's memoized lease quanta and idle-run
// books stale.
func (s *Schedule) invalidateLease(c int) {
	if c >= 0 && c < len(s.leaseQ) {
		s.leaseQ[c] = -1
		s.seqIdleQ[c] = -1
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

// UndoToken records how to reverse exactly one speculative placement
// (AppendSpeculative or PlaceAtSpeculative): the placed operator, any
// optional operators the placement evicted, container growth and retyping,
// and the makespan cache it replaced. Tokens are single-use and only valid
// as long as no other mutation happened in between — the skyline scheduler
// applies/undoes strictly LIFO on a scratch schedule.
type UndoToken struct {
	op        dataflow.OpID
	cont      int
	prevConts int // len(conts) before the mutation
	prevType  int // contType[cont] before retyping; -1 = untouched
	evicted   []Assignment
	placed    bool
	valid     bool
	// saved makespan cache
	msFirst, msLast float64
	msCount         int
	msValid         bool
}

// beginUndo snapshots the cheap-to-save state before a speculative
// placement on container c.
func (s *Schedule) beginUndo(op dataflow.OpID, c int) UndoToken {
	tok := UndoToken{
		op: op, cont: c, prevConts: len(s.conts), prevType: -1, valid: true,
		msFirst: s.msFirst, msLast: s.msLast, msCount: s.msCount, msValid: s.msValid,
	}
	if c < len(s.contType) {
		tok.prevType = s.contType[c]
	}
	return tok
}

// rollbackShape reverts container growth and retyping recorded in tok.
func (s *Schedule) rollbackShape(tok UndoToken) {
	if len(s.conts) > tok.prevConts {
		s.conts = s.conts[:tok.prevConts]
		s.contType = s.contType[:tok.prevConts]
		s.leaseQ = s.leaseQ[:tok.prevConts]
		s.seqIdleQ = s.seqIdleQ[:tok.prevConts]
	}
	if tok.prevType >= 0 && tok.cont < len(s.contType) {
		s.contType[tok.cont] = tok.prevType
	}
}

// Undo reverses the placement recorded in tok, restoring the schedule to
// its exact prior state (assignments, evicted optional ops, container set,
// lease memo and makespan cache). Undoing an invalid token is a no-op.
func (s *Schedule) Undo(tok UndoToken) {
	if !tok.valid {
		return
	}
	if tok.placed {
		s.clearAssign(tok.op)
		ops := s.conts[tok.cont]
		for i, id := range ops {
			if id == tok.op {
				s.conts[tok.cont] = append(ops[:i], ops[i+1:]...)
				break
			}
		}
		for _, a := range tok.evicted {
			s.setAssign(a.Op, a)
			ops := s.conts[tok.cont]
			pos := sort.Search(len(ops), func(i int) bool { return s.assign[ops[i]].Start >= a.Start })
			ops = append(ops, 0)
			copy(ops[pos+1:], ops[pos:])
			ops[pos] = a.Op
			s.conts[tok.cont] = ops
		}
	}
	s.rollbackShape(tok)
	s.invalidateLease(tok.cont)
	s.msFirst, s.msLast, s.msCount, s.msValid = tok.msFirst, tok.msLast, tok.msCount, tok.msValid
}

// Append assigns op to container c at the earliest feasible time after the
// container's current last operator (list scheduling). duration overrides
// the operator's estimated Time when >= 0.
//
// A non-optional (dataflow) operator ignores optional index-build operators
// when computing its start — at runtime priority -1 builds are preempted by
// dataflow operators (§6.1) — and any optional operators its interval
// overlaps are evicted from the schedule.
func (s *Schedule) Append(op dataflow.OpID, c int, duration float64) (Assignment, error) {
	a, _, err := s.appendOp(op, c, duration, false)
	return a, err
}

// AppendSpeculative is Append plus an undo token; when typeIdx >= 0 the
// container is first typed (the skyline's fresh-container choice), and the
// token reverts the retyping too. On error the schedule is left untouched.
func (s *Schedule) AppendSpeculative(op dataflow.OpID, c, typeIdx int, duration float64) (Assignment, UndoToken, error) {
	tok := s.beginUndo(op, c)
	if typeIdx >= 0 {
		if err := s.SetContainerType(c, typeIdx); err != nil {
			s.rollbackShape(tok)
			return Assignment{}, UndoToken{}, err
		}
	}
	a, evicted, err := s.appendOp(op, c, duration, true)
	if err != nil {
		s.rollbackShape(tok)
		return Assignment{}, UndoToken{}, err
	}
	tok.placed = true
	tok.evicted = evicted
	return a, tok, nil
}

// appendOp implements Append; with wantEvicted it also collects the
// optional assignments removed by preemption so callers can undo.
func (s *Schedule) appendOp(op dataflow.OpID, c int, duration float64, wantEvicted bool) (Assignment, []Assignment, error) {
	if s.isPlaced(op) {
		return Assignment{}, nil, fmt.Errorf("sched: op %d already assigned", op)
	}
	o := s.Graph.Op(op)
	if o == nil {
		return Assignment{}, nil, fmt.Errorf("sched: unknown op %d", op)
	}
	s.ensureContainer(c)
	if duration < 0 {
		duration = o.Time / s.ContainerType(c).SpeedFactor
	}
	ready, err := s.ReadyTime(op, c)
	if err != nil {
		return Assignment{}, nil, err
	}
	tail := s.lastEnd(c)
	if !o.Optional {
		tail = 0
		for _, id := range s.conts[c] {
			if !s.Graph.Op(id).Optional {
				if e := s.assign[id].End; e > tail {
					tail = e
				}
			}
		}
	}
	start := math.Max(ready, tail)
	end := start + duration
	var evicted []Assignment
	if !o.Optional {
		// Evict optional ops this interval would preempt.
		kept := s.conts[c][:0]
		for _, id := range s.conts[c] {
			a := s.assign[id]
			if s.Graph.Op(id).Optional && a.End > start+1e-9 && a.Start < end-1e-9 {
				if wantEvicted {
					evicted = append(evicted, a)
				}
				s.clearAssign(id)
				continue
			}
			kept = append(kept, id)
		}
		s.conts[c] = kept
	}
	a := Assignment{Op: op, Container: c, Start: start, End: end}
	s.setAssign(op, a)
	// Keep the container's op list ordered by start time: evictions and
	// preemption-aware starts can place the new op before a later optional
	// op.
	ops := s.conts[c]
	pos := sort.Search(len(ops), func(i int) bool { return s.assign[ops[i]].Start >= start })
	s.conts[c] = append(ops, 0)
	copy(s.conts[c][pos+1:], s.conts[c][pos:])
	s.conts[c][pos] = op
	s.invalidateLease(c)
	s.noteAssigned(a, o.Optional)
	return a, evicted, nil
}

// PlaceAt assigns op to container c at exactly the given start time,
// provided the interval does not overlap existing ops and respects the
// op's predecessors. Used to drop index-build operators into idle slots.
func (s *Schedule) PlaceAt(op dataflow.OpID, c int, start, duration float64) (Assignment, error) {
	a, err := s.placeAtOp(op, c, start, duration)
	return a, err
}

// PlaceAtSpeculative is PlaceAt plus an undo token. On error the schedule
// is left untouched.
func (s *Schedule) PlaceAtSpeculative(op dataflow.OpID, c int, start, duration float64) (Assignment, UndoToken, error) {
	tok := s.beginUndo(op, c)
	a, err := s.placeAtOp(op, c, start, duration)
	if err != nil {
		s.rollbackShape(tok)
		return Assignment{}, UndoToken{}, err
	}
	tok.placed = true
	return a, tok, nil
}

func (s *Schedule) placeAtOp(op dataflow.OpID, c int, start, duration float64) (Assignment, error) {
	if s.isPlaced(op) {
		return Assignment{}, fmt.Errorf("sched: op %d already assigned", op)
	}
	o := s.Graph.Op(op)
	if o == nil {
		return Assignment{}, fmt.Errorf("sched: unknown op %d", op)
	}
	s.ensureContainer(c)
	if duration < 0 {
		duration = o.Time / s.ContainerType(c).SpeedFactor
	}
	ready, err := s.ReadyTime(op, c)
	if err != nil {
		return Assignment{}, err
	}
	if start+1e-9 < ready {
		return Assignment{}, fmt.Errorf("sched: op %d cannot start at %g before ready time %g", op, start, ready)
	}
	end := start + duration
	// Find the insertion point and check for overlap.
	ops := s.conts[c]
	pos := sort.Search(len(ops), func(i int) bool { return s.assign[ops[i]].Start >= start })
	if pos > 0 && s.assign[ops[pos-1]].End > start+1e-9 {
		return Assignment{}, fmt.Errorf("sched: op %d overlaps predecessor interval on container %d", op, c)
	}
	if pos < len(ops) && s.assign[ops[pos]].Start < end-1e-9 {
		return Assignment{}, fmt.Errorf("sched: op %d overlaps successor interval on container %d", op, c)
	}
	a := Assignment{Op: op, Container: c, Start: start, End: end}
	s.setAssign(op, a)
	s.conts[c] = append(ops, 0)
	copy(s.conts[c][pos+1:], s.conts[c][pos:])
	s.conts[c][pos] = op
	s.invalidateLease(c)
	s.noteAssigned(a, o.Optional)
	return a, nil
}

// probe returns the point that applying mv and calling point() would read —
// AppendSpeculative for an append, PlaceAtSpeculative for a placement — and
// whether the move is legal, without writing to s. The skyline scores every
// candidate this way; only a Pareto survivor replays its move, onto a copy
// (candidate.materialize). FuzzProbeEqualsApply holds the two to the bit.
func (s *Schedule) probe(mv move) (point, bool) {
	o := s.Graph.Op(mv.op)
	c := mv.cont
	if o == nil || c < 0 || s.isPlaced(mv.op) {
		return point{}, false
	}
	var ops []dataflow.OpID // c's ops in start order
	if c < len(s.conts) {
		ops = s.conts[c]
	}
	ti := s.typeIndex(c)
	if !mv.place && mv.typeIdx >= 0 {
		// SetContainerType's checks: a pool, a type in it, and no retyping
		// of a container in use.
		if len(s.Types) == 0 || mv.typeIdx >= len(s.Types) || len(ops) > 0 && s.contType[c] != mv.typeIdx {
			return point{}, false
		}
		ti = mv.typeIdx
	}
	vt := s.vmType(ti)
	ready, err := s.readyOn(mv.op, c, vt.Spec)
	if err != nil {
		return point{}, false
	}
	dur := o.Time / vt.SpeedFactor

	var start, end float64
	evicted := 0
	last := dataflow.OpID(-1) // the last op c keeps in start order, the new one aside
	if mv.place {
		start, end = mv.start, mv.start+dur
		if start+1e-9 < ready {
			return point{}, false
		}
		pos := sort.Search(len(ops), func(i int) bool { return s.assign[ops[i]].Start >= start })
		if pos > 0 && s.assign[ops[pos-1]].End > start+1e-9 ||
			pos < len(ops) && s.assign[ops[pos]].Start < end-1e-9 {
			return point{}, false
		}
		if len(ops) > 0 {
			last = ops[len(ops)-1]
		}
	} else {
		// appendOp's start: a dataflow op queues behind the container's
		// dataflow ops only and preempts the builds its interval overlaps.
		tail := s.lastEnd(c)
		if !o.Optional {
			tail = 0
			for _, id := range ops {
				if e := s.assign[id].End; !s.Graph.Op(id).Optional && e > tail {
					tail = e
				}
			}
		}
		start = math.Max(ready, tail)
		end = start + dur
		for _, id := range ops {
			a := s.assign[id]
			if !o.Optional && s.Graph.Op(id).Optional && a.End > start+1e-9 && a.Start < end-1e-9 {
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
	p := point{
		money:   s.money(c, s.Pricing.Quanta(leaseEnd), s.weight(ti)),
		ops:     s.nPlaced + 1 - evicted,
		conts:   s.Containers(),
		seqIdle: -1,
	}
	if len(ops) == 0 {
		p.conts++
	}
	first, lastEnd, count := s.extent()
	if !o.Optional {
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
	return p, true
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

// leaseEndQuanta returns the number of leased quanta for container c, which
// covers its last operator. The value is memoized per container (-1 marks
// a stale entry) and invalidated by Append/PlaceAt/Undo/Repair.
func (s *Schedule) leaseEndQuanta(c int) int {
	if c < len(s.leaseQ) {
		if q := s.leaseQ[c]; q >= 0 {
			return q
		}
		q := s.Pricing.Quanta(s.lastEnd(c))
		s.leaseQ[c] = q
		return q
	}
	return s.Pricing.Quanta(s.lastEnd(c))
}

// MoneyQuanta returns md(Sd) in baseline-price quanta: the sum over used
// containers of the leased quanta, weighted by each container type's price
// relative to the baseline VM price (§3 measures monetary cost in quanta so
// time and money share a unit; in a heterogeneous pool a quantum of a
// pricier type counts proportionally more).
func (s *Schedule) MoneyQuanta() float64 { return s.money(-1, 0, 0) }

// money sums leased quanta times type weight over the used containers in
// container order, reading the lease memo without filling it. Container
// sub, when >= 0, counts subQ quanta at weight subW in place of its own
// term, opened or not: that is how probe prices a move it does not make, in
// MoneyQuanta's summation order, so the two agree to the bit.
func (s *Schedule) money(sub, subQ int, subW float64) float64 {
	var total float64
	for c := 0; c < max(len(s.conts), sub+1); c++ {
		switch {
		case c == sub:
			total += float64(subQ) * subW
		case c < len(s.conts) && len(s.conts[c]) > 0:
			q := s.leaseQ[c]
			if q < 0 {
				q = s.Pricing.Quanta(s.lastEnd(c))
			}
			total += float64(q) * s.weight(s.typeIndex(c))
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
	hint := s.idleCap
	if hint < 8 {
		hint = 8
	}
	out := make([]Slot, 0, hint)
	q := s.Pricing.QuantumSeconds
	for c := range s.conts {
		if len(s.conts[c]) == 0 {
			continue
		}
		leaseEnd := float64(s.leaseEndQuanta(c)) * q
		// Build the busy intervals and walk the gaps.
		cursor := 0.0
		for _, id := range s.conts[c] {
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
	s.idleCap = len(out)
	return out
}

// IdleRuns merges the schedule's per-quantum idle slots into contiguous
// runs, sorted by container then start: both quanta either side of an
// interior boundary are already leased, so a build operator may span it, as
// A1 does in Fig. 2c, but a run never extends a container's lease. A
// returned Slot may therefore cross quantum boundaries; its Quantum is that
// of its first piece. The merge is done in place over the IdleSlots result.
func (s *Schedule) IdleRuns() []Slot {
	slots := s.IdleSlots()
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
	// per-container books, each memoized alongside the lease memo: after a
	// single-container speculative move only that container's runs are
	// re-walked. The re-walk folds the same quantum-split idle pieces
	// IdleSlots materializes — including the ≤1e-9 sliver drop and the
	// |prev.End−start|<1e-9 run merge — without allocating the slice.
	var best float64
	for c := range s.conts {
		if len(s.conts[c]) == 0 {
			continue
		}
		v := s.seqIdleQ[c]
		if v < 0 {
			v = s.contSeqIdle(c)
			s.seqIdleQ[c] = v
		}
		if v > best {
			best = v
		}
	}
	return best
}

// contSeqIdle walks container c's idle gaps and returns its longest
// contiguous idle run.
func (s *Schedule) contSeqIdle(c int) float64 {
	q := s.Pricing.QuantumSeconds
	leaseEnd := float64(s.leaseEndQuanta(c)) * q
	var best float64
	run, prevEnd := 0.0, math.Inf(-1)
	cursor := 0.0
	for _, id := range s.conts[c] {
		a := s.assign[id]
		if a.Start > cursor {
			run, prevEnd, best = idleRunFold(q, cursor, a.Start, run, prevEnd, best)
		}
		if a.End > cursor {
			cursor = a.End
		}
	}
	if cursor < leaseEnd {
		_, _, best = idleRunFold(q, cursor, leaseEnd, run, prevEnd, best)
	}
	return best
}

// idleRunFold splits the idle gap [from, to) at quantum boundaries exactly
// like appendIdle and feeds each surviving piece into the sequential-idle
// run merge, returning the updated (run, prevEnd, best) triple.
func idleRunFold(q, from, to, run, prevEnd, best float64) (float64, float64, float64) {
	for from < to-1e-9 {
		qi := quantumIndex(from, q)
		qEnd := math.Min(float64(qi+1)*q, to)
		if qEnd-from > 1e-9 {
			if math.Abs(prevEnd-from) < 1e-9 {
				run += qEnd - from
			} else {
				run = qEnd - from
			}
			if run > best {
				best = run
			}
			prevEnd = qEnd
		}
		from = qEnd
	}
	return run, prevEnd, best
}

// Validate checks that assignments respect dependency and transfer
// constraints, that no two ops overlap on a container, and that every
// assigned op's interval is consistent.
func (s *Schedule) Validate() error {
	for c, ops := range s.conts {
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
	sort.Slice(buf, func(i, j int) bool {
		if buf[i].Container != buf[j].Container {
			return buf[i].Container < buf[j].Container
		}
		if buf[i].Start != buf[j].Start {
			return buf[i].Start < buf[j].Start
		}
		return buf[i].Op < buf[j].Op
	})
	return buf
}

// ContainerOps returns the number of operators currently placed on
// container c (zero for out-of-range indices).
func (s *Schedule) ContainerOps(c int) int {
	if c < 0 || c >= len(s.conts) {
		return 0
	}
	return len(s.conts[c])
}
