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
	// repaired is the copy of the schedule a run replays once Repair has
	// healed it for the plan's failed containers: CopyFrom refills it, so
	// the caller's schedule stays as planned. It is valid until the next
	// Execute, and no Result refers to it.
	repaired sched.Schedule
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

// reset makes r a healthy row, keeping the storage of its arrivals and of
// both timelines' events for the run that reuses it.
func (r *container) reset() {
	*r = container{
		slow:     timeline{events: r.slow.events[:0]},
		storage:  timeline{events: r.storage.events[:0]},
		arrivals: r.arrivals[:0],
	}
}

// closed reports whether the container accepts no new operator at t: it
// has failed or is inside its revocation notice.
func (r *container) closed(t float64) bool { return r.failed && t >= r.noStart-timeEps }

// resolveFaults makes the container table one healthy row per slot of s
// and writes the plan's events into the rows they hit. AnyContainer events
// rotate deterministically through the active containers (those holding a
// planned operator) by their sequence number, so a plan generated before
// the schedule exists still lands on real containers.
func (sc *scratch) resolveFaults(events []fault.Event, s *sched.Schedule) {
	sc.rows = sc.rows[:0]
	sc.grow(s.NumSlots())
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

// grow appends healthy rows until the container table holds n, reusing
// the storage of the rows an earlier run left past its end.
func (sc *scratch) grow(n int) {
	for len(sc.rows) < n {
		if len(sc.rows) < cap(sc.rows) {
			sc.rows = sc.rows[:len(sc.rows)+1]
			sc.rows[len(sc.rows)-1].reset()
		} else {
			sc.rows = append(sc.rows, container{})
		}
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
	stQueued               // in the ready heap
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
	repairs   []sched.RepairedOp
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

// replay is one Execute call; the stages of the run are its methods. s is
// the schedule being replayed: the caller's, or the executor's repaired
// copy once the plan kills a container. res is the Result being filled.
type replay struct {
	ex  *Executor
	ctx context.Context
	s   *sched.Schedule
	res Result
	// nextFresh is the index of the next container recovery opens.
	nextFresh int
}

// Execute runs the planned schedule and returns the realized execution.
// faults lists fault events with times relative to this run's start (the
// service shifts its absolute fault.Plan via Plan.From); empty means a
// fault-free run. A non-nil ctx lets the caller cancel the replay: the
// event loops poll it and a cancelled run returns Result{Cancelled: true}
// with no other fields populated, events included, so a drained
// admission stops cleanly instead of running to completion.
func (ex *Executor) Execute(ctx context.Context, s *sched.Schedule, faults []fault.Event) Result {
	r := replay{ex: ex, ctx: ctx, s: s}
	if r.cancelled() {
		return Result{Cancelled: true}
	}
	clear(ex.events) // the last run's events name its operators
	ex.events = ex.events[:0]
	r.res.Ops = make([]OpResult, s.Graph.Len())
	ex.sc.resolveFaults(faults, s)
	r.rank()
	r.repair()
	r.group()
	if !r.runFlows() {
		return Result{Cancelled: true}
	}
	r.lease()
	if !r.runBuilds() {
		return Result{Cancelled: true}
	}
	r.total()
	// Past the last cancellation check: the run happened, so it hands out
	// its events.
	if len(ex.events) > 0 {
		r.res.Events = ex.events
	}
	return r.res
}

// cancelled reports whether the caller has cancelled the run.
func (r *replay) cancelled() bool { return r.ctx != nil && r.ctx.Err() != nil }

// logFault appends a provenance event of kind for n effects of fault e.
func (r *replay) logFault(kind provenance.Kind, e fault.Event, n int) {
	r.ex.events = append(r.ex.events, provenance.Event{
		Kind: kind, T: e.At, Name: e.Kind.String(), Container: e.Container, Count: n,
	})
}

// markInjected counts e as a fault that took effect.
func (r *replay) markInjected(e fault.Event) {
	r.res.FaultsInjected++
	r.logFault(provenance.KindFaultInjected, e, 1)
}

// markRecovered counts one absorbed effect of e. Unlike injection,
// recoveries count per effect: an event whose failure forces three
// operators to move is three recoveries.
func (r *replay) markRecovered(e fault.Event) {
	r.res.FaultsRecovered++
	r.logFault(provenance.KindFaultRecovered, e, 1)
}

// injectKill injects the container's kill event once, however many
// operators and passes it affects.
func (r *replay) injectKill(row *container) {
	if !row.killCounted {
		row.killCounted = true
		r.markInjected(row.kill)
	}
}

// addWasted charges seconds of compute a fault discarded.
func (r *replay) addWasted(seconds float64) {
	if seconds > 0 {
		r.res.WastedQuanta += seconds / r.ex.cfg.Pricing.QuantumSeconds
	}
}

// slowFactor returns the compound straggler slowdown active on row at t,
// injecting each event once, when it first falls due. Every due event
// counts as an absorbed effect on every call (the operator rode it out),
// logged as one event.
func (r *replay) slowFactor(row *container, t float64) float64 {
	tl := &row.slow
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
		r.markInjected(tl.events[tl.injected])
	}
	r.res.FaultsRecovered += tl.cur
	r.logFault(provenance.KindFaultRecovered, fault.Event{Kind: fault.Straggler}, tl.cur)
	return tl.prod
}

// storageDelay consumes every storage-error event on row due by t, each a
// fault injected and recovered, and returns the summed retry backoff
// (cloud.RetryBackoff).
func (r *replay) storageDelay(row *container, t float64) float64 {
	var d float64
	for _, e := range row.storage.due(t) {
		d += cloud.RetryBackoff(e.Retries, int64(e.Seq))
		r.markInjected(e)
		r.markRecovered(e)
	}
	return d
}

// rank computes every operator's topological rank: FIFO Kahn over the
// dense op IDs, identical to Graph.TopoSort but on scratch storage. The
// ranks order repair's re-placements and break pass 1's planned-start ties
// between dependent zero-length ops. Repair moves operators, not edges, so
// ranks taken before it hold for the repaired copy.
func (r *replay) rank() {
	sc, g := &r.ex.sc, r.s.Graph
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
}

// repair heals the schedule before execution for every container the plan
// kills, in failure order. Orphaned dataflow operators move to survivors
// (a recovery each); orphaned builds are dropped — their partitions
// re-enter the tuner's beneficial set. The repairs go to the executor's
// copy, which the rest of the run replays; the caller's schedule is not
// touched.
func (r *replay) repair() {
	sc := &r.ex.sc
	sc.failures = sc.failures[:0]
	for c := range sc.rows {
		if sc.rows[c].failed {
			sc.failures = append(sc.failures, c)
		}
	}
	if len(sc.failures) == 0 {
		return
	}
	r.ex.repaired.CopyFrom(r.s)
	r.s = &r.ex.repaired
	// Stable over ascending containers: (failure time, container) order.
	slices.SortStableFunc(sc.failures, func(a, b int) int {
		return cmp.Compare(sc.rows[a].failAt, sc.rows[b].failAt)
	})
	for _, c := range sc.failures {
		dead := &sc.rows[c]
		var err error
		sc.repairs, err = r.s.Repair(sc.repairs, c, dead.failAt, sc.rank)
		if err != nil {
			continue // pass 1's dynamic handling still covers the failure
		}
		for _, rep := range sc.repairs {
			r.injectKill(dead)
			r.addWasted(rep.WastedSeconds)
			if !rep.Dropped {
				r.markRecovered(dead.kill)
				r.res.ReplacedOps++
				continue
			}
			// The build never runs: record it as killed so no operator
			// silently disappears from the result.
			at := math.Min(rep.Old.Start, dead.failAt)
			r.res.Ops[rep.Op] = OpResult{Container: c, Start: at, End: at, Killed: true}
			r.ex.events = append(r.ex.events, provenance.Event{
				Kind: provenance.KindBuildKilled, T: at, Op: r.s.Graph.Op(rep.Op).Name,
				Container: c, Start: at, End: at, Reason: "fault",
			})
		}
	}
	sc.grow(r.s.NumSlots()) // a repair may have opened a container
}

// group sorts the replayed schedule's assignments by (container, start,
// op) once: the sorted slice's contiguous ranges are the per-container
// planned orders.
func (r *replay) group() {
	sc := &r.ex.sc
	sc.assigns = r.s.AssignmentsAppend(sc.assigns)
	sc.groups = sc.groups[:0]
	for lo := 0; lo < len(sc.assigns); {
		c := sc.assigns[lo].Container
		hi := lo + 1
		for hi < len(sc.assigns) && sc.assigns[hi].Container == c {
			hi++
		}
		sc.groups = append(sc.groups, contGroup{c: c, lo: lo, hi: hi})
		lo = hi
	}
}

// queue makes a waiting operator eligible: it goes on the ready heap at its
// planned container and start.
func (r *replay) queue(id dataflow.OpID) {
	sc := &r.ex.sc
	sc.state[id] = stQueued
	sc.heap = heapPush(sc.heap, pendingFlow{
		op: id, cont: int(sc.waitCont[id]), order: sc.waitOrder[id], rank: int(sc.rank[id]),
	})
}

// chooseSurvivor returns the candidate container other than exclude that
// is open at t and whose clock is earliest (lowest index on ties), opening
// a fresh container when there is none. It may append a row: a *container
// taken before a call is stale after it.
func (r *replay) chooseSurvivor(exclude int, t float64) int {
	sc := &r.ex.sc
	best, bestClock := -1, math.Inf(1)
	for _, c := range sc.cands {
		if row := &sc.rows[c]; c != exclude && !row.closed(t) && row.clock < bestClock {
			best, bestClock = c, row.clock
		}
	}
	if best < 0 {
		best = r.nextFresh
		r.nextFresh++
		sc.grow(r.nextFresh)
		sc.cands = append(sc.cands, best)
	}
	return best
}

// replace re-queues p, which container c cannot run, onto a survivor from
// t on: c's kill takes effect and the move is one recovery.
func (r *replay) replace(p pendingFlow, c int, t float64) {
	sc := &r.ex.sc
	row := &sc.rows[c]
	r.injectKill(row)
	r.markRecovered(row.kill)
	r.res.ReplacedOps++
	nc := r.chooseSurvivor(c, t)
	sc.heap = heapPush(sc.heap, pendingFlow{op: p.op, cont: nc, order: t, minStart: t, rank: p.rank})
}

// runFlows is pass 1: dataflow operators. Work-conserving: each starts as
// soon as its predecessors' data has arrived and the previous dataflow
// operator on its container has finished. Build operators never delay
// them (priority -1 yields). Operators on failed containers are killed and
// re-queued onto survivors (replace).
//
// The ready heap holds exactly the eligible operators — those whose
// scheduled predecessors have all completed — fed by per-op unmet
// predecessor counts, so each op is pushed once when its last predecessor
// finishes instead of rescanning the whole pending set per step. Connect
// rejects cycles, so the heap is empty only once every operator has run.
// runFlows reports false when the run was cancelled.
func (r *replay) runFlows() bool {
	sc, s, g := &r.ex.sc, r.s, r.s.Graph
	n := g.Len()
	sc.state = resized(sc.state, n)
	sc.indeg = resized(sc.indeg, n)
	sc.waitCont = resized(sc.waitCont, n)
	sc.waitOrder = resized(sc.waitOrder, n)
	remaining := 0
	for _, a := range sc.assigns {
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
	for _, a := range sc.assigns {
		if sc.state[a.Op] == stWaiting && sc.indeg[a.Op] == 0 {
			r.queue(a.Op)
		}
	}
	r.nextFresh = s.NumSlots()
	sc.cands = sc.cands[:0]
	for _, gr := range sc.groups {
		sc.cands = append(sc.cands, gr.c)
	}

	for remaining > 0 {
		if r.cancelled() {
			return false
		}
		var p pendingFlow
		sc.heap, p, sc.stack = heapPopCluster(sc.heap, sc.stack)
		c := p.cont
		ctype := s.ContainerType(c)
		ready := 0.0
		for _, e := range g.In(p.op) {
			pr := r.res.Ops[e.From]
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
			r.replace(p, c, start)
			continue
		}
		dur := r.ex.cfg.Actual(g.Op(p.op)) / ctype.SpeedFactor
		dur *= r.slowFactor(row, start)
		dur += r.storageDelay(row, start)
		end := start + dur
		// In-flight at the container's failure time: the work since start
		// is lost; the operator restarts from scratch on a survivor.
		if fa := row.failAt; row.failed && end > fa+timeEps {
			r.addWasted(fa - start)
			row.clock = fa
			r.replace(p, c, fa)
			continue
		}
		done := OpResult{Container: c, Start: start, End: end, Ready: ready, Completed: true}
		if a, planned := s.Assignment(p.op); !planned || a.Container != c {
			done.Replaced = true
			row.arrivals = append(row.arrivals, interval{start, end})
		}
		r.res.Ops[p.op] = done
		row.clock = end
		sc.state[p.op] = stDone
		remaining--
		for _, e := range g.Out(p.op) {
			if sc.state[e.To] != stWaiting {
				continue
			}
			sc.indeg[e.To]--
			if sc.indeg[e.To] == 0 {
				r.queue(e.To)
			}
		}
	}
	return true
}

// lease sets each leased container's realized lease in one walk over the
// container table, with a cursor over the planned groups. A planned
// container pays whole quanta covering its last dataflow activity (idle
// containers are deleted when their current quantum expires, §3). One
// holding only build operators is a dedicated build container (the
// delayed-building extension): its lease is the planned quanta the service
// deliberately paid for, and builds running long are still cut at that
// boundary. A failed planned container is charged through the quantum
// containing the failure; the unusable remainder of that lease is fault
// waste. A fresh container recovery opened pays through its last arrival.
func (r *replay) lease() {
	sc, g, pr := &r.ex.sc, r.s.Graph, r.ex.cfg.Pricing
	gi := 0
	for c := range sc.rows {
		row := &sc.rows[c]
		var planned []sched.Assignment
		if gi < len(sc.groups) && sc.groups[gi].c == c {
			planned = sc.assigns[sc.groups[gi].lo:sc.groups[gi].hi]
			gi++
		} else if len(row.arrivals) == 0 {
			continue
		}
		var last float64
		anyFlowOp := false
		for _, a := range planned {
			if !g.Op(a.Op).Optional {
				anyFlowOp = true
				if op := r.res.Ops[a.Op]; op.Container == c && op.End > last {
					last = op.End
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
			for _, a := range planned {
				if a.End > last {
					last = a.End
				}
			}
		}
		lease := float64(pr.Quanta(last)) * pr.QuantumSeconds
		row.buildKill = lease
		if fa := row.failAt; len(planned) > 0 && row.failed && fa < lease-timeEps {
			r.injectKill(row)
			// Pay through the failure's quantum; its tail is waste.
			charged := float64(pr.Quanta(fa)) * pr.QuantumSeconds
			if charged > lease {
				charged = lease
			}
			r.addWasted(charged - fa)
			lease = charged
			row.buildKill = math.Min(fa, lease)
		}
		row.leaseEnd, row.leased = lease, true
	}
}

// runBuilds is pass 2: build operators run in the realized gaps, in planned
// order, stopped by the next dataflow operator's realized start, a
// re-placed arrival, the container's failure, or the lease end. It reports
// false when the run was cancelled.
func (r *replay) runBuilds() bool {
	sc, s, g := &r.ex.sc, r.s, r.s.Graph
	for _, gr := range sc.groups {
		if r.cancelled() {
			return false
		}
		c := gr.c
		row := &sc.rows[c]
		as := sc.assigns[gr.lo:gr.hi]
		// Pass 2 restarts the container's clock at zero, so its straggler
		// queries are non-decreasing again.
		row.slow.cur = 0
		// Realized start of each resident dataflow op on this container,
		// in planned order.
		sc.points = sc.points[:0]
		for i, a := range as {
			if !g.Op(a.Op).Optional {
				if op := r.res.Ops[a.Op]; op.Container == c {
					sc.points = append(sc.points, flowPoint{idx: i, start: op.Start})
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
				if done := r.res.Ops[a.Op]; done.Container == c && done.End > clock {
					clock = done.End
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
			dur := r.ex.cfg.Actual(op) / ctype.SpeedFactor
			dur *= r.slowFactor(row, start)
			end := start + dur
			// Stopped at preemption, expiry or failure unless it ends in time.
			b := OpResult{Container: c, Start: start, End: kill}
			reason := "preempted"
			switch {
			case start >= kill-timeEps:
				b.End = start // preempted before it could run at all
			case end <= kill+timeEps:
				b.End, reason = end, ""
			case faultKill:
				reason = "fault"
				r.injectKill(row)
				r.addWasted(kill - start)
			case kill >= row.buildKill-timeEps:
				reason = "expired"
			}
			b.Completed, b.Killed = reason == "", reason != ""
			if b.Killed {
				r.ex.events = append(r.ex.events, provenance.Event{
					Kind: provenance.KindBuildKilled, T: b.Start, Op: op.Name,
					Container: c, Start: b.Start, End: b.End, Reason: reason,
				})
			}
			r.res.Ops[a.Op] = b
			clock = b.End
		}
	}
	return true
}

// total aggregates the run's makespan, cost and fragmentation in id and
// container order, so a seeded faulty run reproduces byte-identical
// output.
func (r *replay) total() {
	g, pr, res := r.s.Graph, r.ex.cfg.Pricing, &r.res
	first, last := math.Inf(1), 0.0
	anyFlow := false
	var busy float64
	for id, op := range res.Ops {
		if !op.Ran() {
			continue
		}
		busy += op.End - op.Start
		if g.Op(dataflow.OpID(id)).Optional {
			continue
		}
		anyFlow = true
		if op.Start < first {
			first = op.Start
		}
		if op.End > last {
			last = op.End
		}
	}
	if anyFlow {
		res.Makespan = last - first
	}
	var leased float64
	for c := range r.ex.sc.rows {
		row := &r.ex.sc.rows[c]
		if !row.leased {
			continue
		}
		leased += row.leaseEnd
		w := 1.0
		if pr.VMPerQuantum > 0 {
			if t := r.s.ContainerType(c); t.PricePerQuantum > 0 {
				w = t.PricePerQuantum / pr.VMPerQuantum
			}
		}
		res.MoneyQuanta += float64(pr.Quanta(row.leaseEnd)) * w
	}
	res.Fragmentation = leased - busy
}
