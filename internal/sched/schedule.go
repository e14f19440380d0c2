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
	// IdleSlots fills it; MoneyQuanta and probe read it and recompute a
	// stale entry without storing it, so scoring a candidate writes nothing
	// to the schedule it reads.
	leaseQ []int
	// seqIdleQ memoizes per container the longest contiguous idle run
	// (-1 = stale), invalidated together with leaseQ. MaxSequentialIdle
	// fills it; the skyline's §5.3.1 tie-break reads it for every container
	// a move leaves alone and walks only the moved one (seqIdleAfter).
	seqIdleQ []float64
	// idleCap sizes the next IdleSlots result: the previous call's slot
	// count, a pure capacity hint with no correctness role.
	idleCap int
	// Makespan cache over the non-optional ops: earliest start, latest end
	// and count. Maintained incrementally by make; invalidated by
	// destructive edits (Repair).
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

// readyOn is ReadyTime with container c's spec given, so plan can ask as
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

// opsOn returns container c's ops in start order; none for a container
// not yet opened.
func (s *Schedule) opsOn(c int) []dataflow.OpID {
	if c < len(s.conts) {
		return s.conts[c]
	}
	return nil
}

// plan returns where mv puts its operator, without writing to s: the index
// into Types the container runs it as and the interval it occupies, or why
// the move is illegal. It is the one statement of the placement rule: make
// applies a plan, probe prices one and seqIdleAfter measures one.
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
func (s *Schedule) plan(mv move) (typeIdx int, start, end float64, err error) {
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
		case len(ops) > 0 && s.contType[c] != mv.typeIdx:
			return 0, 0, 0, fmt.Errorf("sched: container %d already in use", c)
		}
		typeIdx = mv.typeIdx
	}
	vt := s.vmType(typeIdx)
	ready, err := s.readyOn(mv.op, c, vt.Spec)
	if err != nil {
		return 0, 0, 0, err
	}
	dur := o.Time / vt.SpeedFactor
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
	ti, start, end, err := s.plan(mv)
	if err != nil {
		return Assignment{}, err
	}
	c, optional := mv.cont, s.Graph.Op(mv.op).Optional
	s.ensureContainer(c)
	s.contType[c] = ti
	ops := s.conts[c]
	if !mv.place && !optional {
		kept := ops[:0]
		for _, id := range ops {
			if s.preempts(id, start, end) {
				s.clearAssign(id)
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
	s.conts[c] = ops
	s.invalidateLease(c)
	s.noteAssigned(a, optional)
	return a, nil
}

// Append assigns op to container c at the earliest time it can start there
// (list scheduling) and evicts the index builds it preempts: see plan.
func (s *Schedule) Append(op dataflow.OpID, c int) (Assignment, error) {
	return s.make(move{op: op, cont: c, typeIdx: -1})
}

// PlaceAt assigns op to container c at exactly start, provided the op's
// inputs are ready by then and the interval overlaps none of c's ops. It
// drops index-build operators into idle slots.
func (s *Schedule) PlaceAt(op dataflow.OpID, c int, start float64) (Assignment, error) {
	return s.make(move{op: op, cont: c, typeIdx: -1, start: start, place: true})
}

// probe returns the point make(mv) followed by point() would read, and
// whether the move is legal, without writing to s. The skyline scores every
// candidate this way; only a Pareto survivor makes its move, on a copy
// (candidate.materialize). FuzzProbeEqualsApply holds the two to the bit.
func (s *Schedule) probe(mv move) (point, bool) {
	ti, start, end, err := s.plan(mv)
	if err != nil {
		return point{}, false
	}
	c := mv.cont
	optional := s.Graph.Op(mv.op).Optional
	evicts := !mv.place && !optional
	ops := s.opsOn(c)
	evicted := 0
	last := dataflow.OpID(-1) // the last op c keeps in start order, the new one aside
	for _, id := range ops {
		if evicts && s.preempts(id, start, end) {
			evicted++
			continue
		}
		last = id
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
// a stale entry) and invalidated by make and Repair.
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
	// per-container runs, each memoized until its container changes.
	var best float64
	for c := range s.conts {
		if len(s.conts[c]) == 0 {
			continue
		}
		v := s.seqIdleQ[c]
		if v < 0 {
			v = s.contSeqIdle(c, Assignment{Op: -1}, false)
			s.seqIdleQ[c] = v
		}
		if v > best {
			best = v
		}
	}
	return best
}

// seqIdleAfter returns what MaxSequentialIdle would read after make(mv),
// without writing to s; 0 for a move plan refuses. A move changes only its
// own container, so the others' runs are read from the memo (walked, not
// stored, when stale) and only mv.cont is walked, with the new op in it.
func (s *Schedule) seqIdleAfter(mv move) float64 {
	_, start, end, err := s.plan(mv)
	if err != nil {
		return 0
	}
	evicts := !mv.place && !s.Graph.Op(mv.op).Optional
	best := s.contSeqIdle(mv.cont, Assignment{Op: mv.op, Container: mv.cont, Start: start, End: end}, evicts)
	for c := range s.conts {
		if c == mv.cont || len(s.conts[c]) == 0 {
			continue
		}
		v := s.seqIdleQ[c]
		if v < 0 {
			v = s.contSeqIdle(c, Assignment{Op: -1}, false)
		}
		if v > best {
			best = v
		}
	}
	return best
}

// contSeqIdle returns the longest contiguous idle run on container c before
// the end of its lease. With in.Op >= 0 it reads c as make would leave it
// with in placed: in goes before the first op starting at or after it, the
// builds it preempts are skipped when evicts, and the lease ends with the
// last op in that order.
func (s *Schedule) contSeqIdle(c int, in Assignment, evicts bool) float64 {
	w := idleWalk{q: s.Pricing.QuantumSeconds, prevEnd: math.Inf(-1)}
	pending := in.Op >= 0
	for _, id := range s.opsOn(c) {
		if evicts && s.preempts(id, in.Start, in.End) {
			continue
		}
		a := s.assign[id]
		if pending && a.Start >= in.Start {
			w.busy(in)
			pending = false
		}
		w.busy(a)
	}
	if pending {
		w.busy(in)
	}
	w.idle(w.cursor, float64(s.Pricing.Quanta(w.last))*w.q)
	return w.best
}

// idleWalk folds a container's busy intervals, in start order, into its
// longest contiguous idle run without materializing a slot: each gap is
// split at quantum boundaries as appendIdle splits it, pieces of 1e-9 s or
// less are dropped, and pieces that meet merge as IdleRuns merges them.
type idleWalk struct {
	q            float64 // quantum length in seconds
	cursor, last float64 // the latest end so far; the end of the latest interval
	run, best    float64 // the current run and the longest one
	prevEnd      float64 // where the current run ends
}

func (w *idleWalk) busy(a Assignment) {
	w.idle(w.cursor, a.Start)
	if a.End > w.cursor {
		w.cursor = a.End
	}
	w.last = a.End
}

func (w *idleWalk) idle(from, to float64) {
	for from < to-1e-9 {
		qi := quantumIndex(from, w.q)
		qEnd := math.Min(float64(qi+1)*w.q, to)
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
