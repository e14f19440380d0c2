package sim

// This file preserves the pre-event-core executor verbatim as a test-only
// reference. The golden-equivalence suite (golden_test.go) replays seeded
// runs — faulty and fault-free — through both executeReference and the
// production Execute and requires identical Results, including fault
// accounting. Do not "improve" this copy: its value is that it is the old
// behavior, byte for byte. Only two facts the production executor returns
// were added to it, so the suite pins those too: each dataflow operator's
// Ready, and the provenance events in Result.Events — kill events with
// their reasons, fault injections and recoveries (a straggler's recoveries
// as one event per query, as production reports them), containers
// resolved. Like the production executor it binds no metric.

import (
	"math"
	"sort"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/provenance"
	"idxflow/internal/sched"
)

// refFaultState is the seed's faultState: per-container event lists
// scanned linearly on every query.
type refFaultState struct {
	failAt          map[int]float64
	noStart         map[int]float64
	killEv          map[int]fault.Event
	slow            map[int][]fault.Event
	storage         map[int][]fault.Event
	consumedStorage map[int]bool
	seenInjected    map[int]bool
	seenRecovered   map[int]bool
	active          []int
}

func refResolveFaults(events []fault.Event, s *sched.Schedule) *refFaultState {
	fs := &refFaultState{
		failAt: make(map[int]float64), noStart: make(map[int]float64),
		killEv: make(map[int]fault.Event),
		slow:   make(map[int][]fault.Event), storage: make(map[int][]fault.Event),
		consumedStorage: make(map[int]bool),
		seenInjected:    make(map[int]bool), seenRecovered: make(map[int]bool),
	}
	seen := make(map[int]bool)
	for _, a := range s.Assignments() {
		if !seen[a.Container] {
			seen[a.Container] = true
			fs.active = append(fs.active, a.Container)
		}
	}
	sort.Ints(fs.active)
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
				continue
			}
			fs.failAt[c] = e.At
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
			fs.storage[c] = append(fs.storage[c], ev)
		case e.Kind == fault.Straggler:
			ev := e
			ev.Container = c
			fs.slow[c] = append(fs.slow[c], ev)
		}
	}
	return fs
}

func (fs *refFaultState) deadAt(c int, t float64) bool {
	if fs == nil {
		return false
	}
	fa, ok := fs.failAt[c]
	return ok && t >= fa-timeEps
}

func (fs *refFaultState) slowFactor(c int, t float64, inject func(fault.Event), recovered func(int)) float64 {
	if fs == nil {
		return 1
	}
	f := 1.0
	n := 0
	for _, e := range fs.slow[c] {
		if e.At <= t+timeEps {
			f *= e.SlowFactor
			inject(e)
			n++
		}
	}
	if n > 0 {
		recovered(n)
	}
	return f
}

func (fs *refFaultState) storageDelay(c int, t float64, mark func(fault.Event)) float64 {
	if fs == nil {
		return 0
	}
	var d float64
	for _, e := range fs.storage[c] {
		if e.At <= t+timeEps && !fs.consumedStorage[e.Seq] {
			fs.consumedStorage[e.Seq] = true
			d += cloud.RetryBackoff(e.Retries, int64(e.Seq))
			mark(e)
		}
	}
	return d
}

// executeReference is the seed Execute: quadratic pending rescan, per-call
// fault-list scans, per-call map-backed state.
func executeReference(s *sched.Schedule, cfg Config, faults []fault.Event) Result {
	actual := cfg.Actual
	if actual == nil {
		actual = func(op *dataflow.Operator) float64 { return op.Time }
	}

	res := Result{Ops: make([]OpResult, s.Graph.Len())}
	var fs *refFaultState
	if len(faults) > 0 {
		fs = refResolveFaults(faults, s)
	}
	markInjected := func(e fault.Event) {
		if !fs.seenInjected[e.Seq] {
			fs.seenInjected[e.Seq] = true
			res.FaultsInjected++
			res.Events = append(res.Events, provenance.Event{
				Kind: provenance.KindFaultInjected, T: e.At, Name: e.Kind.String(),
				Container: e.Container, Count: 1,
			})
		}
	}
	markRecovered := func(e fault.Event) {
		fs.seenRecovered[e.Seq] = true
		res.FaultsRecovered++
		res.Events = append(res.Events, provenance.Event{
			Kind: provenance.KindFaultRecovered, T: e.At, Name: e.Kind.String(),
			Container: e.Container, Count: 1,
		})
	}
	markBoth := func(e fault.Event) { markInjected(e); markRecovered(e) }
	recoveredSlow := func(n int) {
		res.FaultsRecovered += n
		res.Events = append(res.Events, provenance.Event{
			Kind: provenance.KindFaultRecovered, Name: fault.Straggler.String(), Count: n,
		})
	}
	addWasted := func(seconds float64) {
		if seconds > 0 {
			res.WastedQuanta += seconds / cfg.Pricing.QuantumSeconds
		}
	}

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
			repairs, err := s.Repair(nil, f.c, f.at, topoRanks(s.Graph))
			if err != nil {
				continue
			}
			for _, r := range repairs {
				markInjected(fs.killEv[f.c])
				addWasted(r.WastedSeconds)
				if r.Dropped {
					at := math.Min(r.Old.Start, f.at)
					res.Ops[r.Op] = OpResult{Container: f.c, Start: at, End: at, Killed: true}
					res.Events = append(res.Events, provenance.Event{
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

	perCont := make(map[int][]sched.Assignment)
	var flowOps []sched.Assignment
	for _, a := range s.Assignments() {
		perCont[a.Container] = append(perCont[a.Container], a)
		if !g.Op(a.Op).Optional {
			flowOps = append(flowOps, a)
		}
	}
	conts := make([]int, 0, len(perCont))
	for c := range perCont {
		conts = append(conts, c)
	}
	sort.Ints(conts)
	topo, _ := g.TopoSort()
	rank := make(map[dataflow.OpID]int, len(topo))
	for i, id := range topo {
		rank[id] = i
	}

	pending := make([]pendingFlow, 0, len(flowOps))
	scheduled := make(map[dataflow.OpID]bool, len(flowOps))
	for _, a := range flowOps {
		pending = append(pending, pendingFlow{op: a.Op, cont: a.Container, order: a.Start, rank: rank[a.Op]})
		scheduled[a.Op] = true
	}
	contClock := make(map[int]float64)
	type interval struct{ start, end float64 }
	arrivals := make(map[int][]interval)
	nextFresh := s.NumSlots()
	candidates := append([]int(nil), conts...)

	chooseSurvivor := func(exclude int, t float64) int {
		best, bestClock := -1, math.Inf(1)
		for _, c := range candidates {
			if c == exclude || (fs != nil && fs.deadAt(c, t)) {
				continue
			}
			if fs != nil {
				if ns, ok := fs.noStart[c]; ok && t >= ns-timeEps {
					continue
				}
			}
			if contClock[c] < bestClock {
				best, bestClock = c, contClock[c]
			}
		}
		if best < 0 {
			best = nextFresh
			nextFresh++
			candidates = append(candidates, best)
		}
		return best
	}

	for len(pending) > 0 {
		pick := -1
		for i, p := range pending {
			ok := true
			for _, e := range g.In(p.op) {
				if scheduled[e.From] && !res.Ops[e.From].Ran() {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if pick < 0 || p.order < pending[pick].order-timeEps ||
				(math.Abs(p.order-pending[pick].order) <= timeEps && p.rank < pending[pick].rank) {
				pick = i
			}
		}
		if pick < 0 {
			pick = 0
		}
		p := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)

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
		start := math.Max(math.Max(contClock[c], ready), p.minStart)
		if fs != nil {
			if ns, ok := fs.noStart[c]; ok && start >= ns-timeEps {
				markBoth(fs.killEv[c])
				res.ReplacedOps++
				nc := chooseSurvivor(c, start)
				pending = append(pending, pendingFlow{
					op: p.op, cont: nc, order: start, minStart: start, rank: p.rank,
				})
				continue
			}
		}
		dur := actual(op) / ctype.SpeedFactor
		if fs != nil {
			dur *= fs.slowFactor(c, start, markInjected, recoveredSlow)
			dur += fs.storageDelay(c, start, markBoth)
		}
		end := start + dur
		if fs != nil {
			if fa, dead := fs.failAt[c]; dead && end > fa+timeEps {
				markBoth(fs.killEv[c])
				addWasted(fa - start)
				res.ReplacedOps++
				contClock[c] = fa
				nc := chooseSurvivor(c, fa)
				pending = append(pending, pendingFlow{
					op: p.op, cont: nc, order: fa, minStart: fa, rank: p.rank,
				})
				continue
			}
		}
		r := OpResult{Container: c, Start: start, End: end, Ready: ready, Completed: true}
		if a, planned := s.Assignment(p.op); !planned || a.Container != c {
			r.Replaced = true
			arrivals[c] = append(arrivals[c], interval{start, end})
		}
		res.Ops[p.op] = r
		contClock[c] = end
	}

	leaseEnd := make(map[int]float64)
	buildKill := make(map[int]float64)
	for _, c := range conts {
		var last float64
		anyFlowOp := false
		for _, a := range perCont[c] {
			if !g.Op(a.Op).Optional {
				anyFlowOp = true
				if r := res.Ops[a.Op]; r.Container == c && r.End > last {
					last = r.End
				}
			}
		}
		if fs != nil && anyFlowOp {
			if fa, dead := fs.failAt[c]; dead && contClock[c] == fa && fa > last {
				last = fa
			}
		}
		for _, iv := range arrivals[c] {
			if iv.end > last {
				last = iv.end
			}
		}
		if !anyFlowOp && len(arrivals[c]) == 0 {
			for _, a := range perCont[c] {
				if a.End > last {
					last = a.End
				}
			}
		}
		lease := float64(cfg.Pricing.Quanta(last)) * cfg.Pricing.QuantumSeconds
		buildKill[c] = lease
		if fs != nil {
			if fa, dead := fs.failAt[c]; dead && fa < lease-timeEps {
				markInjected(fs.killEv[c])
				charged := float64(cfg.Pricing.Quanta(fa)) * cfg.Pricing.QuantumSeconds
				if charged > lease {
					charged = lease
				}
				addWasted(charged - fa)
				lease = charged
				buildKill[c] = math.Min(fa, lease)
			}
		}
		leaseEnd[c] = lease
	}
	for c := range arrivals {
		if _, known := leaseEnd[c]; !known {
			var last float64
			for _, iv := range arrivals[c] {
				if iv.end > last {
					last = iv.end
				}
			}
			leaseEnd[c] = float64(cfg.Pricing.Quanta(last)) * cfg.Pricing.QuantumSeconds
			buildKill[c] = leaseEnd[c]
		}
	}

	for _, c := range conts {
		as := perCont[c]
		type flowPointRef struct {
			idx   int
			start float64
		}
		var points []flowPointRef
		for i, a := range as {
			if !g.Op(a.Op).Optional {
				if r := res.Ops[a.Op]; r.Container == c {
					points = append(points, flowPointRef{idx: i, start: r.Start})
				}
			}
		}
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
			kill := buildKill[c]
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
					kill = ns
				}
				if fa, dead := fs.failAt[c]; dead && fa <= kill+timeEps {
					faultKill = true
				}
			}
			dur := actual(op) / s.ContainerType(c).SpeedFactor
			if fs != nil {
				dur *= fs.slowFactor(c, start, markInjected, recoveredSlow)
			}
			end := start + dur
			r := OpResult{Container: c, Start: start}
			reason := "preempted"
			if start >= kill-timeEps {
				r.End = start
				r.Killed = true
			} else if end > kill+timeEps {
				r.End = kill
				r.Killed = true
				if faultKill {
					reason = "fault"
				} else if kill >= buildKill[c]-timeEps {
					reason = "expired"
				}
				if faultKill {
					markInjected(fs.killEv[c])
					addWasted(r.End - r.Start)
				}
			} else {
				r.End = end
				r.Completed = true
			}
			if r.Killed {
				res.Events = append(res.Events, provenance.Event{
					Kind: provenance.KindBuildKilled, T: r.Start, Op: op.Name,
					Container: c, Start: r.Start, End: r.End, Reason: reason,
				})
			}
			res.Ops[a.Op] = r
			clock = r.End
		}
	}
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
	leasedConts := make([]int, 0, len(leaseEnd))
	for c := range leaseEnd {
		leasedConts = append(leasedConts, c)
	}
	sort.Ints(leasedConts)
	var leased float64
	for _, c := range leasedConts {
		leased += leaseEnd[c]
		w := 1.0
		if cfg.Pricing.VMPerQuantum > 0 {
			if t := s.ContainerType(c); t.PricePerQuantum > 0 {
				w = t.PricePerQuantum / cfg.Pricing.VMPerQuantum
			}
		}
		res.MoneyQuanta += float64(cfg.Pricing.Quanta(leaseEnd[c])) * w
	}
	res.Fragmentation = leased - busy
	return res
}
