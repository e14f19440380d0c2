// Package sim executes planned schedules under the runtime semantics of
// §6.1 of the paper: dataflow operators run at priority 1 and index-build
// operators at priority -1; negative-priority operators are stopped when a
// positive-priority operator arrives at their container or the leased
// quantum expires; and actual operator runtimes may differ from the
// estimates the schedule was planned with (the robustness experiment of
// Fig. 6). Input reads are folded into operator runtimes.
//
// Beyond the paper's fault-free setting, the executor consumes a
// fault.Plan: containers crash or are revoked (in-flight operators are
// killed and re-placed on survivors, partially built index partitions are
// lost), transient storage errors are retried with capped exponential
// backoff, and stragglers stretch realized runtimes.
// Fault handling is deterministic — the same plan and schedule always
// yield the identical Result.
//
// The executor is a discrete-event core built for replay throughput: the
// online tuning loop and the experiments issue thousands of Execute calls
// per run, so the ready set is an indexed min-heap over (planned order,
// topological rank) fed by per-operator unmet-predecessor counts, fault
// plans are pre-resolved into the rows of a container table whose
// time-sorted timelines advance by binary search, and all per-replay
// working state lives in a scratch arena the Executor owns and reuses, so
// steady-state replay allocates little beyond the Result it returns.
package sim

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/provenance"
	"idxflow/internal/sched"
)

// timeEps is the shared tolerance for kill-time and boundary comparisons:
// a build ending exactly at its kill point (lease end, preemption point,
// or container failure) counts as completed, and one scheduled exactly at
// the kill point never starts. All realized-time comparisons in this
// package go through this single constant.
const timeEps = 1e-9

// Config is what stays fixed for an executor's owner across its runs.
type Config struct {
	Pricing cloud.Pricing
	Spec    cloud.Spec
	// Actual returns the true runtime of an operator in seconds; nil means
	// the estimates are exact (op.Time).
	Actual func(op *dataflow.Operator) float64
}

// Executor replays schedules under one Config. It owns the scratch arena
// and the event buffer every run reuses, and binds no metric: its caller
// reads what a run did off the Result. Like a sched.Skyline it is used by
// one goroutine at a time; a service builds one per tenant.
type Executor struct {
	cfg Config
	sc  scratch
	// events buffers the run's provenance events; a completed Result hands
	// them out as its Events, so a cancelled run hands out none.
	events []provenance.Event
}

// New returns an executor for cfg.
func New(cfg Config) *Executor {
	if cfg.Actual == nil {
		cfg.Actual = func(op *dataflow.Operator) float64 { return op.Time }
	}
	return &Executor{cfg: cfg}
}

// Execute runs the planned schedule once, fault-free and uncancellable,
// on a fresh executor.
func Execute(s *sched.Schedule, cfg Config) Result { return New(cfg).Execute(nil, s, nil) }

// OpResult is the realized execution of one operator. The zero value is an
// operator the run never started: in practice an optional operator the
// schedule never placed.
type OpResult struct {
	Container int
	Start     float64
	End       float64
	// Ready is when a dataflow operator's inputs had all arrived on its
	// container; Start - Ready is how long they waited for it. Zero for a
	// build operator.
	Ready float64
	// Killed reports an index-build operator stopped by preemption,
	// quantum expiry or container failure before completing.
	Killed bool
	// Completed is true for dataflow operators that ran and build
	// operators that finished.
	Completed bool
	// Replaced is true for dataflow operators that were killed on a
	// failed container and re-ran on the recorded (surviving) Container.
	Replaced bool
}

// Ran reports whether the run started the operator: every entry but the
// zero one is Completed or Killed.
func (r OpResult) Ran() bool { return r.Completed || r.Killed }

// Result summarizes an execution.
type Result struct {
	// Ops is the run's own table of operator outcomes, indexed by OpID and
	// of length Graph.Len(); it shares nothing with the executor.
	Ops []OpResult
	// Makespan is the realized dataflow execution time td: first dataflow
	// operator start to last dataflow operator finish.
	Makespan float64
	// MoneyQuanta is the realized monetary cost in quanta.
	MoneyQuanta float64
	// Fragmentation is the paid-but-idle time in seconds.
	Fragmentation float64
	// FaultsInjected counts fault events that took effect: they killed or
	// delayed work, cut a lease short, or slowed a container. Planned
	// events that hit idle or unleased containers are not counted.
	FaultsInjected int
	// FaultsRecovered counts absorbed fault effects: every re-placed
	// dataflow operator, retried transfer and ridden-out straggler.
	FaultsRecovered int
	// ReplacedOps counts dataflow operators re-placed onto surviving
	// containers after a crash or revocation.
	ReplacedOps int
	// WastedQuanta is paid compute the faults discarded, in quanta:
	// partial runs of killed operators plus lease time past a failure.
	WastedQuanta float64
	// Events are the run's provenance events in the order they happened:
	// builds killed, faults injected and recovered. They name no flow, and
	// T is seconds since the run's start; the caller stamps both. The slice
	// is the executor's buffer, valid until its next Execute.
	Events []provenance.Event
	// Cancelled reports that the run's context was cancelled mid-replay. A
	// cancelled result carries no other data: the execution never happened
	// as far as accounting is concerned.
	Cancelled bool
}

// timeline is one container's straggler or storage-error events,
// At-ascending, with a cursor past the prefix already due. Query times are
// non-decreasing within each execution pass, so the cursor moves by binary
// search instead of a rescan per query.
type timeline struct {
	events []fault.Event
	cur    int
	// prod is the compound slowdown of a straggler timeline's due prefix,
	// folded in timeline order.
	prod float64
	// injected is a straggler timeline's high-water mark: pass 2 rewinds
	// cur, but the due events always form a prefix, so the events below
	// injected are the ones already counted in FaultsInjected.
	injected int
}

// due moves the cursor past every event due by t and returns them.
func (tl *timeline) due(t float64) []fault.Event {
	if tl.cur >= len(tl.events) || tl.events[tl.cur].At > t+timeEps {
		return nil
	}
	lo := tl.cur
	tl.cur += sort.Search(len(tl.events)-lo, func(i int) bool {
		return tl.events[lo+i].At > t+timeEps
	})
	return tl.events[lo:tl.cur]
}

// interval is the realized run of an operator re-placed onto a container.
type interval struct{ start, end float64 }

// container is one row of a run's container table: a planned container, or
// a fresh one recovery opened. The zero row is a healthy container, so a
// fault-free run is a run whose rows carry no faults.
type container struct {
	// clock is when pass 1's last dataflow operator on the container ended.
	clock float64
	// leaseEnd is the realized lease and buildKill the point where pass 2
	// stops the container's builds; leased marks a container the run pays
	// for.
	leaseEnd, buildKill float64
	leased              bool
	// failed marks a container the plan kills at failAt (its earliest crash
	// or revocation); noStart is when it stops accepting new operators (the
	// revocation notice; failAt for a crash). kill is that event with its
	// container resolved, and killCounted whether it is already in
	// FaultsInjected, so an event that affects many operators is injected
	// once.
	failed          bool
	failAt, noStart float64
	kill            fault.Event
	killCounted     bool
	// slow holds the straggler timeline, storage the transient storage
	// errors. A storage cursor never rewinds, so each storage error is
	// applied once.
	slow, storage timeline
	// arrivals are the realized intervals of operators re-placed onto the
	// container, so pass 2 can preempt builds that planned for that idle
	// time.
	arrivals []interval
}

// closed reports whether the container accepts no new operator at t: it
// has failed or is inside its revocation notice.
func (r *container) closed(t float64) bool { return r.failed && t >= r.noStart-timeEps }

// slowFactor returns the compound straggler slowdown active on the
// container at t, reporting each event to inject once, when it first falls
// due. Every due event counts as an absorbed effect on every call (the
// operator rode it out), reported in bulk through recovered.
func (r *container) slowFactor(t float64, inject func(fault.Event), recovered func(int)) float64 {
	tl := &r.slow
	if tl.cur == 0 {
		tl.prod = 1
	}
	for _, e := range tl.due(t) {
		tl.prod *= e.SlowFactor
	}
	if tl.cur == 0 {
		return 1
	}
	for ; tl.injected < tl.cur; tl.injected++ {
		inject(tl.events[tl.injected])
	}
	recovered(tl.cur)
	return tl.prod
}

// storageDelay consumes every storage-error event on the container due by
// t and returns the summed retry backoff under cloud.DefaultBackoff.
func (r *container) storageDelay(t float64, mark func(fault.Event)) float64 {
	var d float64
	for _, e := range r.storage.due(t) {
		d += cloud.DefaultBackoff().TotalDelay(e.Retries, int64(e.Seq))
		mark(e)
	}
	return d
}

// resolveFaults makes the container table one healthy row per slot of s
// and writes the plan's events into the rows they hit. AnyContainer events
// rotate deterministically through the active containers (those holding a
// planned operator) by their sequence number, so a plan generated before
// the schedule exists still lands on real containers.
func (sc *scratch) resolveFaults(events []fault.Event, s *sched.Schedule) {
	sc.rows = resized(sc.rows, s.NumSlots())
	if len(events) == 0 {
		return
	}
	sc.active = sc.active[:0]
	for c := range sc.rows {
		if s.ContainerOps(c) > 0 {
			sc.active = append(sc.active, c)
		}
	}
	if len(sc.active) == 0 {
		return
	}
	// Every fresh container a run opens answers a kill: repair opens at
	// most one per failed container, and pass 1 one more than the kills on
	// the fresh containers it opened. No run reaches a container past
	// reach, so an event naming one hits nothing.
	reach := len(sc.rows) + 2*len(events) + 1
	for _, e := range events {
		if e.Container == fault.AnyContainer {
			e.Container = sc.active[e.Seq%len(sc.active)]
		}
		c := e.Container
		if c < 0 || c >= reach {
			continue
		}
		sc.grow(c + 1)
		// The row keeps the resolved copy: provenance events name the
		// concrete container, not AnyContainer.
		r := &sc.rows[c]
		switch {
		case e.KillsContainer():
			if r.failed && r.failAt <= e.At {
				continue // the container is already gone by then
			}
			r.failed, r.failAt, r.noStart, r.kill = true, e.At, e.At, e
			if e.Kind == fault.SpotRevocation && e.NoticeSeconds > 0 {
				r.noStart = e.At - e.NoticeSeconds
			}
		case e.Kind == fault.StorageError:
			r.storage.events = append(r.storage.events, e)
		case e.Kind == fault.Straggler:
			r.slow.events = append(r.slow.events, e)
		}
	}
	// Plans are generated At-sorted, making the stable sort the identity;
	// it only reorders hand-built unsorted configs.
	byAt := func(a, b fault.Event) int { return cmp.Compare(a.At, b.At) }
	for c := range sc.rows {
		slices.SortStableFunc(sc.rows[c].slow.events, byAt)
		slices.SortStableFunc(sc.rows[c].storage.events, byAt)
	}
}

// grow appends healthy rows until the container table holds n.
func (sc *scratch) grow(n int) {
	for len(sc.rows) < n {
		sc.rows = append(sc.rows, container{})
	}
}

// pendingFlow is one dataflow operator awaiting execution in pass 1.
type pendingFlow struct {
	op   dataflow.OpID
	cont int
	// order is the planned start (or re-placement time), the processing
	// order key; rank breaks ties topologically.
	order    float64
	minStart float64
	rank     int
}

// pfLess is the ready-heap order: strict (order, rank). The timeEps
// tie-break the seed semantics require is applied at pop time by
// heapPopCluster, not here.
func pfLess(a, b pendingFlow) bool {
	if a.order != b.order {
		return a.order < b.order
	}
	return a.rank < b.rank
}

func heapPush(h []pendingFlow, p pendingFlow) []pendingFlow {
	h = append(h, p)
	i := len(h) - 1
	for i > 0 {
		par := (i - 1) / 2
		if !pfLess(h[i], h[par]) {
			break
		}
		h[i], h[par] = h[par], h[i]
		i = par
	}
	return h
}

// heapFix restores the heap property around index i after a removal
// replaced h[i] with the former last element.
func heapFix(h []pendingFlow, i int) {
	for i > 0 {
		par := (i - 1) / 2
		if !pfLess(h[i], h[par]) {
			break
		}
		h[i], h[par] = h[par], h[i]
		i = par
	}
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h) && pfLess(h[l], h[m]) {
			m = l
		}
		if r < len(h) && pfLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// heapPopCluster removes and returns the operator the seed selection
// picks: the strict (order, rank) minimum opens an eps window, and the
// smallest topological rank among operators with order within timeEps of
// that minimum wins (ranks are unique per op, so the pick is
// deterministic). The window members all sit on root paths of the heap,
// so a pruned descent visits only the — almost always singleton —
// cluster. stack is caller-owned scratch, returned for capacity reuse.
func heapPopCluster(h []pendingFlow, stack []int) ([]pendingFlow, pendingFlow, []int) {
	best := 0
	if len(h) > 1 {
		limit := h[0].order + timeEps
		stack = stack[:0]
		if h[1].order <= limit {
			stack = append(stack, 1)
		}
		if len(h) > 2 && h[2].order <= limit {
			stack = append(stack, 2)
		}
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if h[i].rank < h[best].rank {
				best = i
			}
			if l := 2*i + 1; l < len(h) && h[l].order <= limit {
				stack = append(stack, l)
			}
			if r := 2*i + 2; r < len(h) && h[r].order <= limit {
				stack = append(stack, r)
			}
		}
	}
	p := h[best]
	last := len(h) - 1
	h[best] = h[last]
	h = h[:last]
	if best < len(h) {
		heapFix(h, best)
	}
	return h, p, stack
}

// Pass-1 operator states for the eligibility bookkeeping.
const (
	stNone    uint8 = iota // not a scheduled dataflow operator
	stWaiting              // scheduled, has unmet scheduled predecessors
	stQueued               // in the ready heap (or force-queued)
	stDone                 // completed, result recorded
)

// flowPoint is the realized start of a resident dataflow op, by position
// in the container's planned order (pass 2's preemption points).
type flowPoint struct {
	idx   int
	start float64
}

// contGroup is one container's contiguous range in the sorted assignment
// slice.
type contGroup struct{ c, lo, hi int }

// scratch is the per-replay working state of Execute, owned by the
// Executor and reused across the thousands of replays the experiments and
// the tuning loop issue. Per-operator slices are indexed by the dense OpID;
// rows, the run's container table, by container index: the schedule's
// slots, then the fresh containers recovery opens. Nothing in scratch
// escapes into the returned Result.
type scratch struct {
	assigns   []sched.Assignment
	groups    []contGroup
	kahn      []int32
	fifo      []dataflow.OpID
	rank      []int32
	indeg     []int32
	state     []uint8
	waitCont  []int32
	waitOrder []float64
	heap      []pendingFlow
	stack     []int
	cands     []int
	points    []flowPoint
	rows      []container
	active    []int
	failures  []int
}

// resized returns s with length n and every element zeroed, reusing the
// backing array when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Execute runs the planned schedule and returns the realized execution.
// faults lists fault events with times relative to this run's start (the
// service shifts its absolute fault.Plan via Plan.From); empty means a
// fault-free run. A non-nil ctx lets the caller cancel the replay: the
// event loops poll it and a cancelled run returns Result{Cancelled: true}
// with no other fields populated, events included, so a drained
// admission stops cleanly instead of running to completion.
func (ex *Executor) Execute(ctx context.Context, s *sched.Schedule, faults []fault.Event) Result {
	cfg := &ex.cfg
	cancelled := func() bool { return ctx != nil && ctx.Err() != nil }
	if cancelled() {
		return Result{Cancelled: true}
	}
	actual, sc := cfg.Actual, &ex.sc
	clear(ex.events) // the last run's events name its operators
	ex.events = ex.events[:0]

	res := Result{Ops: make([]OpResult, s.Graph.Len())}
	sc.resolveFaults(faults, s)
	markInjected := func(e fault.Event) {
		res.FaultsInjected++
		ex.events = append(ex.events, provenance.Event{
			Kind: provenance.KindFaultInjected, T: e.At, Name: e.Kind.String(),
			Container: e.Container, Count: 1,
		})
	}
	// A container's kill event is injected once, however many operators
	// and passes it affects.
	injectKill := func(r *container) {
		if !r.killCounted {
			r.killCounted = true
			markInjected(r.kill)
		}
	}
	markRecovered := func(e fault.Event) {
		// Unlike injection, recoveries count per absorbed effect: an event
		// whose failure forces three operators to move is three recoveries.
		res.FaultsRecovered++
		ex.events = append(ex.events, provenance.Event{
			Kind: provenance.KindFaultRecovered, T: e.At, Name: e.Kind.String(),
			Container: e.Container, Count: 1,
		})
	}
	markBoth := func(e fault.Event) { markInjected(e); markRecovered(e) }
	recoveredSlow := func(n int) {
		res.FaultsRecovered += n
		ex.events = append(ex.events, provenance.Event{
			Kind: provenance.KindFaultRecovered, Name: fault.Straggler.String(), Count: n,
		})
	}
	addWasted := func(seconds float64) {
		if seconds > 0 {
			res.WastedQuanta += seconds / cfg.Pricing.QuantumSeconds
		}
	}

	// Planned repair: heal the schedule before execution for every
	// container the plan kills, in failure order. Orphaned dataflow
	// operators move to survivors (a recovery each); orphaned builds are
	// dropped — their partitions re-enter the tuner's beneficial set.
	sc.failures = sc.failures[:0]
	for c := range sc.rows {
		if sc.rows[c].failed {
			sc.failures = append(sc.failures, c)
		}
	}
	if len(sc.failures) > 0 {
		s = s.Clone()
		// Stable over ascending containers: (failure time, container) order.
		slices.SortStableFunc(sc.failures, func(a, b int) int {
			return cmp.Compare(sc.rows[a].failAt, sc.rows[b].failAt)
		})
		for _, c := range sc.failures {
			dead := &sc.rows[c]
			repairs, err := s.Repair(c, dead.failAt)
			if err != nil {
				continue // dynamic handling below still covers the failure
			}
			for _, r := range repairs {
				injectKill(dead)
				addWasted(r.WastedSeconds)
				if r.Dropped {
					// The build never runs: record it as killed so no
					// operator silently disappears from the result.
					at := math.Min(r.Old.Start, dead.failAt)
					res.Ops[r.Op] = OpResult{Container: c, Start: at, End: at, Killed: true}
					ex.events = append(ex.events, provenance.Event{
						Kind: provenance.KindBuildKilled, T: at, Op: s.Graph.Op(r.Op).Name,
						Container: c, Start: at, End: at, Reason: "fault",
					})
				} else {
					markRecovered(dead.kill)
					res.ReplacedOps++
				}
			}
		}
		sc.grow(s.NumSlots()) // a repair may have opened a container
	}
	g := s.Graph

	// One sorted assignment pass: contiguous ranges of the
	// (container, start, op)-sorted slice are the per-container planned
	// orders the seed kept in a map of slices.
	sc.assigns = s.AssignmentsAppend(sc.assigns)
	assigns := sc.assigns
	sc.groups = sc.groups[:0]
	for lo := 0; lo < len(assigns); {
		c := assigns[lo].Container
		hi := lo + 1
		for hi < len(assigns) && assigns[hi].Container == c {
			hi++
		}
		sc.groups = append(sc.groups, contGroup{c: c, lo: lo, hi: hi})
		lo = hi
	}

	// Topological ranks break planned-start ties between dependent
	// zero-length ops and order re-placements. FIFO Kahn over the dense
	// op IDs, identical to Graph.TopoSort but on scratch storage.
	n := g.Len()
	sc.kahn = resized(sc.kahn, n)
	sc.rank = resized(sc.rank, n)
	sc.fifo = sc.fifo[:0]
	for id := 0; id < n; id++ {
		sc.kahn[id] = int32(len(g.In(dataflow.OpID(id))))
		if sc.kahn[id] == 0 {
			sc.fifo = append(sc.fifo, dataflow.OpID(id))
		}
	}
	for i := 0; i < len(sc.fifo); i++ {
		id := sc.fifo[i]
		sc.rank[id] = int32(i)
		for _, e := range g.Out(id) {
			sc.kahn[e.To]--
			if sc.kahn[e.To] == 0 {
				sc.fifo = append(sc.fifo, e.To)
			}
		}
	}

	// Pass 1: dataflow operators. Work-conserving: each starts as soon as
	// its predecessors' data has arrived and the previous dataflow
	// operator on its container has finished. Build operators never delay
	// them (priority -1 yields). Operators on failed containers are
	// killed and re-queued onto survivors; survivors are chosen
	// deterministically (least-loaded, lowest index), opening a fresh
	// container only when every candidate is dead.
	//
	// The ready heap holds exactly the eligible operators — those whose
	// scheduled predecessors have all completed — fed by per-op unmet
	// predecessor counts, so each op is pushed once when its last
	// predecessor finishes instead of rescanning the whole pending set
	// per step.
	sc.state = resized(sc.state, n)
	sc.indeg = resized(sc.indeg, n)
	sc.waitCont = resized(sc.waitCont, n)
	sc.waitOrder = resized(sc.waitOrder, n)
	remaining := 0
	for _, a := range assigns {
		if g.Op(a.Op).Optional {
			continue
		}
		sc.state[a.Op] = stWaiting
		sc.waitCont[a.Op] = int32(a.Container)
		sc.waitOrder[a.Op] = a.Start
		remaining++
	}
	for id := 0; id < n; id++ {
		if sc.state[id] != stWaiting {
			continue
		}
		for _, e := range g.In(dataflow.OpID(id)) {
			if sc.state[e.From] == stWaiting {
				sc.indeg[id]++
			}
		}
	}
	sc.heap = sc.heap[:0]
	for _, a := range assigns {
		id := a.Op
		if sc.state[id] == stWaiting && sc.indeg[id] == 0 {
			sc.state[id] = stQueued
			sc.heap = heapPush(sc.heap, pendingFlow{
				op: id, cont: int(sc.waitCont[id]), order: sc.waitOrder[id], rank: int(sc.rank[id]),
			})
		}
	}

	nextFresh := s.NumSlots()
	sc.cands = sc.cands[:0]
	for _, gr := range sc.groups {
		sc.cands = append(sc.cands, gr.c)
	}
	// chooseSurvivor may append a row: a *container taken before a call is
	// stale after it.
	chooseSurvivor := func(exclude int, t float64) int {
		best, bestClock := -1, math.Inf(1)
		for _, c := range sc.cands {
			if r := &sc.rows[c]; c != exclude && !r.closed(t) && r.clock < bestClock {
				best, bestClock = c, r.clock
			}
		}
		if best < 0 {
			best = nextFresh
			nextFresh++
			sc.grow(nextFresh)
			sc.cands = append(sc.cands, best)
		}
		return best
	}

	for remaining > 0 {
		if cancelled() {
			return Result{Cancelled: true}
		}
		if len(sc.heap) == 0 {
			// Unreachable for DAGs (Connect rejects cycles); force the
			// lowest-ID unfinished op so the loop cannot livelock.
			for id := 0; id < n; id++ {
				if sc.state[id] == stWaiting {
					sc.state[id] = stQueued
					sc.heap = heapPush(sc.heap, pendingFlow{
						op: dataflow.OpID(id), cont: int(sc.waitCont[id]),
						order: sc.waitOrder[id], rank: int(sc.rank[id]),
					})
					break
				}
			}
			if len(sc.heap) == 0 {
				break
			}
		}
		var p pendingFlow
		sc.heap, p, sc.stack = heapPopCluster(sc.heap, sc.stack)

		op := g.Op(p.op)
		c := p.cont
		ctype := s.ContainerType(c)
		ready := 0.0
		for _, e := range g.In(p.op) {
			pr := res.Ops[e.From]
			if !pr.Completed {
				continue
			}
			t := pr.End
			if pr.Container != c {
				t += ctype.Spec.TransferSeconds(e.Size)
			}
			if t > ready {
				ready = t
			}
		}
		row := &sc.rows[c]
		start := math.Max(math.Max(row.clock, ready), p.minStart)
		// A failed (or notice-window) container accepts no new operators:
		// re-place without losing work.
		if row.closed(start) {
			injectKill(row)
			markRecovered(row.kill)
			res.ReplacedOps++
			nc := chooseSurvivor(c, start)
			sc.heap = heapPush(sc.heap, pendingFlow{
				op: p.op, cont: nc, order: start, minStart: start, rank: p.rank,
			})
			continue
		}
		dur := actual(op) / ctype.SpeedFactor
		dur *= row.slowFactor(start, markInjected, recoveredSlow)
		dur += row.storageDelay(start, markBoth)
		end := start + dur
		// In-flight at the container's failure time: the work since start
		// is lost; the operator restarts from scratch on a survivor.
		if fa := row.failAt; row.failed && end > fa+timeEps {
			injectKill(row)
			markRecovered(row.kill)
			addWasted(fa - start)
			res.ReplacedOps++
			row.clock = fa
			nc := chooseSurvivor(c, fa)
			sc.heap = heapPush(sc.heap, pendingFlow{
				op: p.op, cont: nc, order: fa, minStart: fa, rank: p.rank,
			})
			continue
		}
		r := OpResult{Container: c, Start: start, End: end, Ready: ready, Completed: true}
		if a, planned := s.Assignment(p.op); !planned || a.Container != c {
			r.Replaced = true
			row.arrivals = append(row.arrivals, interval{start, end})
		}
		res.Ops[p.op] = r
		row.clock = end
		sc.state[p.op] = stDone
		remaining--
		for _, e := range g.Out(p.op) {
			if sc.state[e.To] != stWaiting {
				continue
			}
			sc.indeg[e.To]--
			if sc.indeg[e.To] == 0 {
				sc.state[e.To] = stQueued
				sc.heap = heapPush(sc.heap, pendingFlow{
					op: e.To, cont: int(sc.waitCont[e.To]), order: sc.waitOrder[e.To], rank: int(sc.rank[e.To]),
				})
			}
		}
	}

	// Realized lease per container: whole quanta covering the last
	// dataflow activity (idle containers are deleted when their current
	// quantum expires, §3). A container holding only build operators is a
	// dedicated build container (the delayed-building extension): its
	// lease is the planned quanta the service deliberately paid for, and
	// builds running long are still cut at that boundary. A failed
	// container is charged through the quantum containing the failure;
	// the unusable remainder of that lease is fault waste.
	for _, gr := range sc.groups {
		c := gr.c
		row := &sc.rows[c]
		var last float64
		anyFlowOp := false
		for _, a := range assigns[gr.lo:gr.hi] {
			if !g.Op(a.Op).Optional {
				anyFlowOp = true
				if r := res.Ops[a.Op]; r.Container == c && r.End > last {
					last = r.End
				}
			}
		}
		// Killed partial runs occupy the container up to the failure.
		if fa := row.failAt; anyFlowOp && row.failed && row.clock == fa && fa > last {
			last = fa
		}
		for _, iv := range row.arrivals {
			if iv.end > last {
				last = iv.end
			}
		}
		if !anyFlowOp && len(row.arrivals) == 0 {
			for _, a := range assigns[gr.lo:gr.hi] {
				if a.End > last {
					last = a.End
				}
			}
		}
		lease := float64(cfg.Pricing.Quanta(last)) * cfg.Pricing.QuantumSeconds
		row.buildKill = lease
		if fa := row.failAt; row.failed && fa < lease-timeEps {
			injectKill(row)
			// Pay through the failure's quantum; its tail is waste.
			charged := float64(cfg.Pricing.Quanta(fa)) * cfg.Pricing.QuantumSeconds
			if charged > lease {
				charged = lease
			}
			addWasted(charged - fa)
			lease = charged
			row.buildKill = math.Min(fa, lease)
		}
		row.leaseEnd = lease
		row.leased = true
	}
	for c := range sc.rows {
		row := &sc.rows[c]
		if row.leased || len(row.arrivals) == 0 {
			continue
		}
		// A fresh container opened by recovery: leased like any other.
		var last float64
		for _, iv := range row.arrivals {
			if iv.end > last {
				last = iv.end
			}
		}
		row.leaseEnd = float64(cfg.Pricing.Quanta(last)) * cfg.Pricing.QuantumSeconds
		row.buildKill = row.leaseEnd
		row.leased = true
	}

	// Pass 2: build operators run in the realized gaps, in planned order,
	// stopped by the next dataflow operator's realized start, a re-placed
	// arrival, the container's failure, or the lease end.
	for _, gr := range sc.groups {
		if cancelled() {
			return Result{Cancelled: true}
		}
		c := gr.c
		row := &sc.rows[c]
		as := assigns[gr.lo:gr.hi]
		// Pass 2 restarts the container's clock at zero, so its straggler
		// queries are non-decreasing again.
		row.slow.cur = 0
		// Realized start of each resident dataflow op on this container,
		// in planned order.
		sc.points = sc.points[:0]
		for i, a := range as {
			if !g.Op(a.Op).Optional {
				if r := res.Ops[a.Op]; r.Container == c {
					sc.points = append(sc.points, flowPoint{idx: i, start: r.Start})
				}
			}
		}
		points := sc.points
		ctype := s.ContainerType(c)
		clock := 0.0
		pi := 0
		for i, a := range as {
			op := g.Op(a.Op)
			if !op.Optional {
				if r := res.Ops[a.Op]; r.Container == c && r.End > clock {
					clock = r.End
				}
				if pi < len(points) && points[pi].idx == i {
					pi++
				}
				continue
			}
			// Kill time: the next resident dataflow op's realized start,
			// a re-placed arrival, the container failure, else the lease
			// end.
			kill := row.buildKill
			for j := pi; j < len(points); j++ {
				if points[j].idx > i {
					if points[j].start < kill {
						kill = points[j].start
					}
					break
				}
			}
			for _, iv := range row.arrivals {
				if iv.end > clock+timeEps && iv.start < kill {
					kill = math.Max(iv.start, clock)
				}
			}
			start := clock
			if row.failed && row.noStart < kill {
				kill = row.noStart // no new work after the failure notice
			}
			faultKill := row.failed && row.failAt <= kill+timeEps
			dur := actual(op) / ctype.SpeedFactor
			dur *= row.slowFactor(start, markInjected, recoveredSlow)
			end := start + dur
			r := OpResult{Container: c, Start: start}
			killReason := ""
			if start >= kill-timeEps {
				r.End = start // preempted before it could run at all
				r.Killed = true
				killReason = "preempted"
			} else if end > kill+timeEps {
				r.End = kill // stopped at preemption, expiry or failure
				r.Killed = true
				switch {
				case faultKill:
					killReason = "fault"
				case kill >= row.buildKill-timeEps:
					killReason = "expired"
				default:
					killReason = "preempted"
				}
				if faultKill {
					injectKill(row)
					addWasted(r.End - r.Start)
				}
			} else {
				r.End = end
				r.Completed = true
			}
			if r.Killed {
				ex.events = append(ex.events, provenance.Event{
					Kind: provenance.KindBuildKilled, T: r.Start, Op: op.Name,
					Container: c, Start: r.Start, End: r.End, Reason: killReason,
				})
			}
			res.Ops[a.Op] = r
			clock = r.End
		}
	}

	// Aggregate metrics in id order, so a seeded faulty run reproduces
	// byte-identical output.
	first, last := math.Inf(1), 0.0
	anyFlow := false
	var busy float64
	for id, r := range res.Ops {
		if !r.Ran() {
			continue
		}
		busy += r.End - r.Start
		if g.Op(dataflow.OpID(id)).Optional {
			continue
		}
		anyFlow = true
		if r.Start < first {
			first = r.Start
		}
		if r.End > last {
			last = r.End
		}
	}
	if anyFlow {
		res.Makespan = last - first
	}
	var leased float64
	for c := range sc.rows {
		row := &sc.rows[c]
		if !row.leased {
			continue
		}
		leased += row.leaseEnd
		w := 1.0
		if cfg.Pricing.VMPerQuantum > 0 {
			if t := s.ContainerType(c); t.PricePerQuantum > 0 {
				w = t.PricePerQuantum / cfg.Pricing.VMPerQuantum
			}
		}
		res.MoneyQuanta += float64(cfg.Pricing.Quanta(row.leaseEnd)) * w
	}
	res.Fragmentation = leased - busy

	// Past the last cancellation check: the run happened, so it hands out
	// its events.
	if len(ex.events) > 0 {
		res.Events = ex.events
	}
	return res
}
