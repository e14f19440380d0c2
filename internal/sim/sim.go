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
// plans are pre-resolved into per-container time-sorted timelines advanced
// by binary search, and all per-replay working state lives in a scratch
// arena the Executor owns and reuses, so steady-state replay allocates
// little beyond the Result it returns.
package sim

import (
	"context"
	"math"
	"slices"
	"sort"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/provenance"
	"idxflow/internal/sched"
	"idxflow/internal/telemetry"
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
	// Metrics, when non-nil, receives executor counters and histograms
	// (operator run/wait times, builds killed, quanta charged, faults
	// injected and recovered).
	Metrics *telemetry.Registry
}

// Executor replays schedules under one Config. It binds the instruments
// once, caches the label handles of the op-kind and fault-kind series as
// runs first touch them, and owns the scratch arena and the publication
// buffers every run reuses. Like a sched.Skyline it is used by one
// goroutine at a time; a service builds one per tenant.
type Executor struct {
	cfg         Config
	ins         instruments
	opRunByKind [int(dataflow.KindBuildIndex) + 1]*telemetry.Histogram
	injByKind   [int(fault.Straggler) + 1]*telemetry.Counter
	recByKind   [int(fault.Straggler) + 1]*telemetry.Counter
	sc          scratch
	// tallies buffers a run's instrument updates in the order they were
	// produced; publish hands them to the registry once the run can no
	// longer be cancelled, so a cancelled run leaves no trace there.
	tallies []tally
	// events buffers the run's provenance events; a completed Result hands
	// them out as its Events.
	events []provenance.Event
}

// New returns an executor for cfg. It registers the executor's metric
// families in cfg.Metrics, so they appear in a scrape before the first run.
func New(cfg Config) *Executor {
	if cfg.Actual == nil {
		cfg.Actual = func(op *dataflow.Operator) float64 { return op.Time }
	}
	return &Executor{cfg: cfg, ins: newInstruments(cfg.Metrics)}
}

// Execute runs the planned schedule once, fault-free and uncancellable,
// on a fresh executor.
func Execute(s *sched.Schedule, cfg Config) Result { return New(cfg).Execute(nil, s, nil) }

// instruments bundles the executor's metric handles; all fields are
// nil-safe no-ops when Config.Metrics is nil.
type instruments struct {
	opRun           *telemetry.HistogramVec
	opWait          *telemetry.Histogram
	buildsKilled    *telemetry.Counter
	buildsCompleted *telemetry.Counter
	quantaCharged   *telemetry.Counter
	fragmentation   *telemetry.Counter
	faultsInjected  *telemetry.CounterVec
	recoveries      *telemetry.CounterVec
	wastedQuanta    *telemetry.Counter
}

func newInstruments(reg *telemetry.Registry) instruments {
	return instruments{
		opRun: reg.HistogramVec("idxflow_op_run_seconds",
			"Realized operator occupancy per execution, by operator kind.",
			telemetry.ExponentialBuckets(0.5, 2, 12), "kind"),
		opWait: reg.Histogram("idxflow_op_wait_seconds",
			"Time an operator's inputs sat ready while its container was busy.",
			telemetry.ExponentialBuckets(0.5, 2, 12)),
		buildsKilled: reg.Counter("idxflow_builds_killed_total",
			"Index-build operators stopped by preemption, quantum expiry or container failure."),
		buildsCompleted: reg.Counter("idxflow_builds_completed_total",
			"Index-build operators that finished inside their idle slot."),
		quantaCharged: reg.Counter("idxflow_quanta_charged_total",
			"VM quanta charged for realized executions (price-weighted)."),
		fragmentation: reg.Counter("idxflow_fragmentation_seconds_total",
			"Paid-but-idle container seconds across executions."),
		faultsInjected: reg.CounterVec("idxflow_faults_injected_total",
			"Fault events that took effect during execution, by fault kind.", "kind"),
		recoveries: reg.CounterVec("idxflow_recoveries_total",
			"Fault effects absorbed: re-placed operators, retried transfers, stragglers ridden out.", "kind"),
		wastedQuanta: reg.Counter("idxflow_wasted_quanta_total",
			"Paid compute discarded because of faults (killed work and dead lease tails), in quanta."),
	}
}

// family names the instrument a buffered tally updates.
type family uint8

const (
	famOpRun family = iota
	famOpWait
	famBuildsKilled
	famBuildsCompleted
	famFaultsInjected
	famRecoveries
)

// tally is one buffered instrument update of a run. kind is the label of
// the labeled families: a dataflow.Kind for famOpRun, a fault.Kind for
// famFaultsInjected and famRecoveries.
type tally struct {
	to   family
	kind int
	v    float64
}

// note buffers one instrument update; a run without a registry buffers none.
func (ex *Executor) note(to family, kind int, v float64) {
	if ex.cfg.Metrics != nil {
		ex.tallies = append(ex.tallies, tally{to: to, kind: kind, v: v})
	}
}

// publish hands the run's buffered updates to the registry in the order the
// run produced them.
func (ex *Executor) publish() {
	for _, t := range ex.tallies {
		switch t.to {
		case famOpRun:
			ex.opRunHist(dataflow.Kind(t.kind)).Observe(t.v)
		case famOpWait:
			ex.ins.opWait.Observe(t.v)
		case famBuildsKilled:
			ex.ins.buildsKilled.Add(t.v)
		case famBuildsCompleted:
			ex.ins.buildsCompleted.Add(t.v)
		case famFaultsInjected:
			faultCounter(&ex.injByKind, ex.ins.faultsInjected, fault.Kind(t.kind)).Add(t.v)
		case famRecoveries:
			faultCounter(&ex.recByKind, ex.ins.recoveries, fault.Kind(t.kind)).Add(t.v)
		}
	}
}

// opRunHist returns op kind k's run-time series, resolved on first use.
func (ex *Executor) opRunHist(k dataflow.Kind) *telemetry.Histogram {
	if k < 0 || int(k) >= len(ex.opRunByKind) {
		return ex.ins.opRun.With(k.String())
	}
	if ex.opRunByKind[k] == nil {
		ex.opRunByKind[k] = ex.ins.opRun.With(k.String())
	}
	return ex.opRunByKind[k]
}

// faultCounter returns fault kind k's series of vec, resolved on first use
// and cached in byKind.
func faultCounter(byKind *[int(fault.Straggler) + 1]*telemetry.Counter, vec *telemetry.CounterVec, k fault.Kind) *telemetry.Counter {
	if k < 0 || int(k) >= len(byKind) {
		return vec.With(k.String())
	}
	if byKind[k] == nil {
		byKind[k] = vec.With(k.String())
	}
	return byKind[k]
}

// OpResult is the realized execution of one operator.
type OpResult struct {
	Op        dataflow.OpID
	Container int
	Start     float64
	End       float64
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

// Result summarizes an execution.
type Result struct {
	Ops map[dataflow.OpID]OpResult
	// Makespan is the realized dataflow execution time td: first dataflow
	// operator start to last dataflow operator finish.
	Makespan float64
	// MoneyQuanta is the realized monetary cost in quanta.
	MoneyQuanta float64
	// Fragmentation is the paid-but-idle time in seconds.
	Fragmentation float64
	// Killed counts build operators stopped before completion.
	Killed int
	// CompletedBuilds lists the build operators that finished.
	CompletedBuilds []dataflow.OpID
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
}

// due moves the cursor past every event due by t and returns them; a nil
// timeline has none.
func (tl *timeline) due(t float64) []fault.Event {
	if tl == nil || tl.cur >= len(tl.events) || tl.events[tl.cur].At > t+timeEps {
		return nil
	}
	lo := tl.cur
	tl.cur += sort.Search(len(tl.events)-lo, func(i int) bool {
		return tl.events[lo+i].At > t+timeEps
	})
	return tl.events[lo:tl.cur]
}

// faultState indexes a resolved fault plan for one execution.
type faultState struct {
	// failAt is the effective failure time per container (earliest crash
	// or revocation); noStart is when the container stops accepting new
	// operators (the revocation notice; equals failAt for crashes).
	failAt  map[int]float64
	noStart map[int]float64
	killEv  map[int]fault.Event
	// slow holds straggler timelines per container, storage the transient
	// storage errors. A storage cursor never rewinds, so each storage error
	// is applied once.
	slow    map[int]*timeline
	storage map[int]*timeline
	// seenInjected marks event Seqs already counted toward the injection
	// metric, so an event affecting many operators is injected once.
	seenInjected map[int]bool
	// active lists containers holding at least one planned operator,
	// ascending — the resolution domain for fault.AnyContainer.
	active []int
}

// resolveFaults maps plan events onto the schedule's active containers.
// AnyContainer events rotate deterministically through the active set by
// their sequence number, so a plan generated before the schedule exists
// still lands on real containers.
func resolveFaults(events []fault.Event, s *sched.Schedule) *faultState {
	fs := &faultState{
		failAt: make(map[int]float64), noStart: make(map[int]float64),
		killEv: make(map[int]fault.Event),
		slow:   make(map[int]*timeline), storage: make(map[int]*timeline),
		seenInjected: make(map[int]bool),
	}
	for c := 0; c < s.NumSlots(); c++ {
		if s.ContainerOps(c) > 0 {
			fs.active = append(fs.active, c)
		}
	}
	if len(fs.active) == 0 {
		return fs
	}
	for _, e := range events {
		c := e.Container
		if c == fault.AnyContainer {
			c = fs.active[e.Seq%len(fs.active)]
		}
		switch {
		case e.KillsContainer():
			if prev, dead := fs.failAt[c]; dead && prev <= e.At {
				continue // container is already gone by then
			}
			fs.failAt[c] = e.At
			// Store the resolved copy: downstream consumers (metrics,
			// provenance events) see the concrete container, not
			// AnyContainer.
			ev := e
			ev.Container = c
			fs.killEv[c] = ev
			fs.noStart[c] = e.At
			if e.Kind == fault.SpotRevocation && e.NoticeSeconds > 0 {
				fs.noStart[c] = e.At - e.NoticeSeconds
			}
		case e.Kind == fault.StorageError:
			ev := e
			ev.Container = c
			tl := fs.storage[c]
			if tl == nil {
				tl = &timeline{}
				fs.storage[c] = tl
			}
			tl.events = append(tl.events, ev)
		case e.Kind == fault.Straggler:
			ev := e
			ev.Container = c
			tl := fs.slow[c]
			if tl == nil {
				tl = &timeline{prod: 1}
				fs.slow[c] = tl
			}
			tl.events = append(tl.events, ev)
		}
	}
	// Plans are generated At-sorted, making the stable sort the identity;
	// it only reorders hand-built unsorted configs.
	for _, tl := range fs.slow {
		ev := tl.events
		sort.SliceStable(ev, func(i, j int) bool { return ev[i].At < ev[j].At })
	}
	for _, tl := range fs.storage {
		ev := tl.events
		sort.SliceStable(ev, func(i, j int) bool { return ev[i].At < ev[j].At })
	}
	return fs
}

// deadAt reports whether container c has failed by (or at) time t.
func (fs *faultState) deadAt(c int, t float64) bool {
	if fs == nil {
		return false
	}
	fa, ok := fs.failAt[c]
	return ok && t >= fa-timeEps
}

// slowFactor returns the compound straggler slowdown active on c at t,
// reporting each event to inject as it becomes due (injection counting
// dedups by Seq anyway). Every active event counts as an absorbed effect on
// every call (the operator rode it out), reported in bulk through recovered.
func (fs *faultState) slowFactor(c int, t float64, inject func(fault.Event), recovered func(int)) float64 {
	if fs == nil {
		return 1
	}
	tl := fs.slow[c]
	if tl == nil {
		return 1
	}
	for _, e := range tl.due(t) {
		tl.prod *= e.SlowFactor
		inject(e)
	}
	if tl.cur > 0 {
		recovered(tl.cur)
	}
	return tl.prod
}

// resetSlow rewinds c's straggler cursor; pass 2 restarts each
// container's clock at zero, so its queries are non-decreasing again.
func (fs *faultState) resetSlow(c int) {
	if tl := fs.slow[c]; tl != nil {
		tl.cur, tl.prod = 0, 1
	}
}

// storageDelay consumes every storage-error event on c due by t and
// returns the summed retry backoff under cloud.DefaultBackoff.
func (fs *faultState) storageDelay(c int, t float64, mark func(fault.Event)) float64 {
	if fs == nil {
		return 0
	}
	var d float64
	for _, e := range fs.storage[c].due(t) {
		d += cloud.DefaultBackoff().TotalDelay(e.Retries, int64(e.Seq))
		mark(e)
	}
	return d
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
// the tuning loop issue. Per-operator slices are indexed by the dense OpID,
// per-container slices by container index (including recovery-opened
// fresh containers). Nothing in scratch escapes into the returned Result.
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
	contClock []float64
	cands     []int
	leaseEnd  []float64
	buildKill []float64
	leased    []bool
	points    []flowPoint
	ids       []dataflow.OpID
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
// with no other fields populated, events included, and publishes no metric,
// so a drained admission stops cleanly instead of running to completion.
func (ex *Executor) Execute(ctx context.Context, s *sched.Schedule, faults []fault.Event) Result {
	cfg := &ex.cfg
	cancelled := func() bool { return ctx != nil && ctx.Err() != nil }
	if cancelled() {
		return Result{Cancelled: true}
	}
	actual, sc := cfg.Actual, &ex.sc
	clear(ex.events) // the last run's events name its operators
	ex.tallies, ex.events = ex.tallies[:0], ex.events[:0]

	res := Result{Ops: make(map[dataflow.OpID]OpResult, s.Assigned())}
	var fs *faultState
	if len(faults) > 0 {
		fs = resolveFaults(faults, s)
	}
	markInjected := func(e fault.Event) {
		if !fs.seenInjected[e.Seq] {
			fs.seenInjected[e.Seq] = true
			res.FaultsInjected++
			ex.note(famFaultsInjected, int(e.Kind), 1)
			ex.events = append(ex.events, provenance.Event{
				Kind: provenance.KindFaultInjected, T: e.At, Name: e.Kind.String(),
				Container: e.Container, Count: 1,
			})
		}
	}
	markRecovered := func(e fault.Event) {
		// Unlike injection, recoveries count per absorbed effect: an event
		// whose failure forces three operators to move is three recoveries.
		res.FaultsRecovered++
		ex.note(famRecoveries, int(e.Kind), 1)
		ex.events = append(ex.events, provenance.Event{
			Kind: provenance.KindFaultRecovered, T: e.At, Name: e.Kind.String(),
			Container: e.Container, Count: 1,
		})
	}
	markBoth := func(e fault.Event) { markInjected(e); markRecovered(e) }
	recoveredSlow := func(n int) {
		res.FaultsRecovered += n
		ex.note(famRecoveries, int(fault.Straggler), float64(n))
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
	if fs != nil && len(fs.failAt) > 0 {
		s = s.Clone()
		type failure struct {
			c  int
			at float64
		}
		var failures []failure
		for c, at := range fs.failAt {
			failures = append(failures, failure{c, at})
		}
		sort.Slice(failures, func(i, j int) bool {
			if failures[i].at != failures[j].at {
				return failures[i].at < failures[j].at
			}
			return failures[i].c < failures[j].c
		})
		for _, f := range failures {
			repairs, err := s.Repair(f.c, f.at)
			if err != nil {
				continue // dynamic handling below still covers the failure
			}
			for _, r := range repairs {
				markInjected(fs.killEv[f.c])
				addWasted(r.WastedSeconds)
				if r.Dropped {
					// The build never runs: record it as killed so no
					// operator silently disappears from the result.
					at := math.Min(r.Old.Start, f.at)
					res.Ops[r.Op] = OpResult{Op: r.Op, Container: f.c, Start: at, End: at, Killed: true}
					res.Killed++
					ex.note(famBuildsKilled, 0, 1)
					ex.events = append(ex.events, provenance.Event{
						Kind: provenance.KindBuildKilled, T: at, Op: s.Graph.Op(r.Op).Name,
						Container: f.c, Start: at, End: at, Reason: "fault",
					})
				} else {
					markRecovered(fs.killEv[f.c])
					res.ReplacedOps++
				}
			}
		}
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

	nC := s.NumSlots()
	sc.contClock = resized(sc.contClock, nC)
	nextFresh := nC
	sc.cands = sc.cands[:0]
	for _, gr := range sc.groups {
		sc.cands = append(sc.cands, gr.c)
	}
	// arrivals records realized intervals of re-placed ops per container,
	// so pass 2 can preempt builds that planned for that idle time. Only
	// faulty replays populate it.
	type interval struct{ start, end float64 }
	var arrivals map[int][]interval
	addArrival := func(c int, iv interval) {
		if arrivals == nil {
			arrivals = make(map[int][]interval)
		}
		arrivals[c] = append(arrivals[c], iv)
	}

	chooseSurvivor := func(exclude int, t float64) int {
		best, bestClock := -1, math.Inf(1)
		for _, c := range sc.cands {
			if c == exclude || (fs != nil && fs.deadAt(c, t)) {
				continue
			}
			if fs != nil {
				if ns, ok := fs.noStart[c]; ok && t >= ns-timeEps {
					continue // inside a revocation notice window
				}
			}
			if sc.contClock[c] < bestClock {
				best, bestClock = c, sc.contClock[c]
			}
		}
		if best < 0 {
			best = nextFresh
			nextFresh++
			sc.cands = append(sc.cands, best)
			sc.contClock = append(sc.contClock, 0)
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
			pr, done := res.Ops[e.From]
			if !done || !pr.Completed {
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
		start := math.Max(math.Max(sc.contClock[c], ready), p.minStart)
		// A failed (or notice-window) container accepts no new operators:
		// re-place without losing work.
		if fs != nil {
			if ns, ok := fs.noStart[c]; ok && start >= ns-timeEps {
				markBoth(fs.killEv[c])
				res.ReplacedOps++
				nc := chooseSurvivor(c, start)
				sc.heap = heapPush(sc.heap, pendingFlow{
					op: p.op, cont: nc, order: start, minStart: start, rank: p.rank,
				})
				continue
			}
		}
		ex.note(famOpWait, 0, start-ready)
		dur := actual(op) / ctype.SpeedFactor
		if fs != nil {
			dur *= fs.slowFactor(c, start, markInjected, recoveredSlow)
			dur += fs.storageDelay(c, start, markBoth)
		}
		end := start + dur
		// In-flight at the container's failure time: the work since start
		// is lost; the operator restarts from scratch on a survivor.
		if fs != nil {
			if fa, dead := fs.failAt[c]; dead && end > fa+timeEps {
				markBoth(fs.killEv[c])
				addWasted(fa - start)
				res.ReplacedOps++
				sc.contClock[c] = fa
				nc := chooseSurvivor(c, fa)
				sc.heap = heapPush(sc.heap, pendingFlow{
					op: p.op, cont: nc, order: fa, minStart: fa, rank: p.rank,
				})
				continue
			}
		}
		ex.note(famOpRun, int(op.Kind), dur)
		r := OpResult{Op: p.op, Container: c, Start: start, End: end, Completed: true}
		if a, planned := s.Assignment(p.op); !planned || a.Container != c {
			r.Replaced = true
			addArrival(c, interval{start, end})
		}
		res.Ops[p.op] = r
		sc.contClock[c] = end
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
	sc.leaseEnd = resized(sc.leaseEnd, nextFresh)
	sc.buildKill = resized(sc.buildKill, nextFresh)
	sc.leased = resized(sc.leased, nextFresh)
	for _, gr := range sc.groups {
		c := gr.c
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
		if fs != nil && anyFlowOp {
			// Killed partial runs occupy the container up to the failure.
			if fa, dead := fs.failAt[c]; dead && sc.contClock[c] == fa && fa > last {
				last = fa
			}
		}
		for _, iv := range arrivals[c] {
			if iv.end > last {
				last = iv.end
			}
		}
		if !anyFlowOp && len(arrivals[c]) == 0 {
			for _, a := range assigns[gr.lo:gr.hi] {
				if a.End > last {
					last = a.End
				}
			}
		}
		lease := float64(cfg.Pricing.Quanta(last)) * cfg.Pricing.QuantumSeconds
		sc.buildKill[c] = lease
		if fs != nil {
			if fa, dead := fs.failAt[c]; dead && fa < lease-timeEps {
				markInjected(fs.killEv[c])
				// Pay through the failure's quantum; its tail is waste.
				charged := float64(cfg.Pricing.Quanta(fa)) * cfg.Pricing.QuantumSeconds
				if charged > lease {
					charged = lease
				}
				addWasted(charged - fa)
				lease = charged
				sc.buildKill[c] = math.Min(fa, lease)
			}
		}
		sc.leaseEnd[c] = lease
		sc.leased[c] = true
	}
	for c, ivs := range arrivals {
		if sc.leased[c] {
			continue
		}
		// A fresh container opened by recovery: leased like any other.
		var last float64
		for _, iv := range ivs {
			if iv.end > last {
				last = iv.end
			}
		}
		sc.leaseEnd[c] = float64(cfg.Pricing.Quanta(last)) * cfg.Pricing.QuantumSeconds
		sc.buildKill[c] = sc.leaseEnd[c]
		sc.leased[c] = true
	}

	// Pass 2: build operators run in the realized gaps, in planned order,
	// stopped by the next dataflow operator's realized start, a re-placed
	// arrival, the container's failure, or the lease end.
	for _, gr := range sc.groups {
		if cancelled() {
			return Result{Cancelled: true}
		}
		c := gr.c
		as := assigns[gr.lo:gr.hi]
		if fs != nil {
			fs.resetSlow(c)
		}
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
			kill := sc.buildKill[c]
			for j := pi; j < len(points); j++ {
				if points[j].idx > i {
					if points[j].start < kill {
						kill = points[j].start
					}
					break
				}
			}
			for _, iv := range arrivals[c] {
				if iv.end > clock+timeEps && iv.start < kill {
					kill = math.Max(iv.start, clock)
				}
			}
			start := clock
			faultKill := false
			if fs != nil {
				if ns, ok := fs.noStart[c]; ok && math.Min(ns, kill) < kill {
					kill = ns // no new work after the failure notice
				}
				if fa, dead := fs.failAt[c]; dead && fa <= kill+timeEps {
					faultKill = true
				}
			}
			dur := actual(op) / ctype.SpeedFactor
			if fs != nil {
				dur *= fs.slowFactor(c, start, markInjected, recoveredSlow)
			}
			end := start + dur
			r := OpResult{Op: a.Op, Container: c, Start: start}
			killReason := ""
			if start >= kill-timeEps {
				r.End = start // preempted before it could run at all
				r.Killed = true
				res.Killed++
				killReason = "preempted"
			} else if end > kill+timeEps {
				r.End = kill // stopped at preemption, expiry or failure
				r.Killed = true
				res.Killed++
				switch {
				case faultKill:
					killReason = "fault"
				case kill >= sc.buildKill[c]-timeEps:
					killReason = "expired"
				default:
					killReason = "preempted"
				}
				if faultKill {
					markInjected(fs.killEv[c])
					addWasted(r.End - r.Start)
				}
			} else {
				r.End = end
				r.Completed = true
				res.CompletedBuilds = append(res.CompletedBuilds, a.Op)
			}
			if r.Killed {
				ex.note(famBuildsKilled, 0, 1)
				ex.events = append(ex.events, provenance.Event{
					Kind: provenance.KindBuildKilled, T: r.Start, Op: op.Name,
					Container: c, Start: r.Start, End: r.End, Reason: killReason,
				})
			} else {
				ex.note(famBuildsCompleted, 0, 1)
			}
			ex.note(famOpRun, int(op.Kind), r.End-r.Start)
			res.Ops[a.Op] = r
			clock = r.End
		}
	}
	slices.Sort(res.CompletedBuilds)

	// Aggregate metrics, iterating deterministically so a seeded faulty
	// run reproduces byte-identical output.
	sc.ids = sc.ids[:0]
	for id := range res.Ops {
		sc.ids = append(sc.ids, id)
	}
	slices.Sort(sc.ids)
	first, last := math.Inf(1), 0.0
	anyFlow := false
	var busy float64
	for _, id := range sc.ids {
		r := res.Ops[id]
		busy += r.End - r.Start
		if g.Op(id).Optional {
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
	for c := 0; c < nextFresh; c++ {
		if !sc.leased[c] {
			continue
		}
		leased += sc.leaseEnd[c]
		w := 1.0
		if cfg.Pricing.VMPerQuantum > 0 {
			if t := s.ContainerType(c); t.PricePerQuantum > 0 {
				w = t.PricePerQuantum / cfg.Pricing.VMPerQuantum
			}
		}
		res.MoneyQuanta += float64(cfg.Pricing.Quanta(sc.leaseEnd[c])) * w
	}
	res.Fragmentation = leased - busy

	// Past the last cancellation check: the run happened, so it publishes.
	ex.publish()
	ex.ins.quantaCharged.Add(res.MoneyQuanta)
	ex.ins.fragmentation.Add(res.Fragmentation)
	ex.ins.wastedQuanta.Add(res.WastedQuanta)
	if len(ex.events) > 0 {
		res.Events = ex.events
	}
	return res
}
