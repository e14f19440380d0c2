package check

import (
	"math"
	"sort"

	"idxflow/internal/bptree"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/gain"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
)

// Tolerances. Identities recomputed from the same floats compare at tightEps;
// sums folded in a different order (money, fragmentation) at looseEps.
const (
	tightEps = 1e-9
	looseEps = 1e-6
)

// AuditConfig describes the execution being audited.
type AuditConfig struct {
	// Faults are the events handed to (*sim.Executor).Execute
	// (execution-relative times); nil means the run was fault-free.
	Faults []fault.Event
	// Exact asserts that realized equals planned: the run used exact
	// estimates (Config.Actual nil), no faults and no input-read model, so
	// every non-optional operator must replay its assignment bit for bit.
	Exact bool
}

// Audit verifies the cross-layer invariants of a realized execution
// against the schedule it replayed and the fault plan it consumed: result
// domain and flag coherence, topological causality, container booking,
// §3 lease/quantum/money accounting, fault conservation (injected implies
// recovered or wasted) and, for exact runs, planned-equals-realized. It
// returns an error listing every violated invariant.
func Audit(res sim.Result, s *sched.Schedule, cfg AuditConfig) error {
	r := &Report{}
	g := s.Graph
	p := s.Pricing
	q := p.QuantumSeconds

	// I1 result-domain: the table has one entry per operator of the graph,
	// and every reported operator (any entry but the zero one, which means
	// never started) has a well-formed interval on a legal container.
	if len(res.Ops) != g.Len() {
		r.addf("result-domain", "table has %d entries for %d operators", len(res.Ops), g.Len())
		return r.Err()
	}
	ids := make([]dataflow.OpID, 0, len(res.Ops))
	for id, or := range res.Ops {
		if or != (sim.OpResult{}) {
			ids = append(ids, dataflow.OpID(id))
		}
	}
	for _, id := range ids {
		or := res.Ops[id]
		op := g.Op(id)
		if or.Container < 0 {
			r.addf("result-domain", "op %d on negative container %d", id, or.Container)
		}
		if math.IsNaN(or.Start) || math.IsInf(or.Start, 0) || math.IsNaN(or.End) || math.IsInf(or.End, 0) ||
			or.Start < -tightEps || or.End < or.Start-tightEps {
			r.addf("result-domain", "op %d has malformed interval [%g, %g]", id, or.Start, or.End)
		}
		// I2 flag-coherence: Completed and Killed are exclusive; only
		// optional (build) operators may be killed; only mandatory
		// (dataflow) operators are ever re-placed.
		if or.Completed && or.Killed {
			r.addf("flag-coherence", "op %d both completed and killed", id)
		}
		if or.Killed && !op.Optional {
			r.addf("flag-coherence", "mandatory op %d killed", id)
		}
		if or.Replaced && op.Optional {
			r.addf("flag-coherence", "optional op %d re-placed (builds are dropped, not moved)", id)
		}
		if !op.Optional && !or.Completed {
			r.addf("flag-coherence", "mandatory op %d not completed", id)
		}
	}

	// I3 completeness: every mandatory assigned operator ran to completion.
	for _, a := range s.Assignments() {
		if !g.Op(a.Op).Optional && !res.Ops[a.Op].Completed {
			r.addf("completeness", "mandatory op %d did not complete", a.Op)
		}
	}

	// I4 causality: a completed mandatory operator never starts before a
	// completed mandatory predecessor's data has arrived (§6.1; transfer
	// time applies when the producer ran on a different container).
	for _, id := range ids {
		vr := res.Ops[id]
		if g.Op(id).Optional || !vr.Completed {
			continue
		}
		for _, e := range g.In(id) {
			ur := res.Ops[e.From]
			if g.Op(e.From).Optional || !ur.Completed {
				continue
			}
			ready := ur.End
			if ur.Container != vr.Container {
				ready += s.ContainerType(vr.Container).Spec.TransferSeconds(e.Size)
			}
			if vr.Start+looseEps < ready {
				r.addf("causality", "op %d starts at %g before op %d's data arrives at %g",
					id, vr.Start, e.From, ready)
			}
		}
	}

	// I5 no-double-booking: realized intervals on one container never
	// overlap (single-CPU containers run one operator at a time).
	byCont := map[int][]dataflow.OpID{}
	conts := []int{}
	for _, id := range ids {
		c := res.Ops[id].Container
		if _, seen := byCont[c]; !seen {
			conts = append(conts, c)
		}
		byCont[c] = append(byCont[c], id)
	}
	sort.Ints(conts)
	for _, c := range conts {
		ops := byCont[c] // in id order, so the stable sort breaks ties by id
		sort.SliceStable(ops, func(i, j int) bool { return res.Ops[ops[i]].Start < res.Ops[ops[j]].Start })
		for i := 1; i < len(ops); i++ {
			prev, cur := res.Ops[ops[i-1]], res.Ops[ops[i]]
			if cur.Start+looseEps < prev.End {
				r.addf("no-double-booking", "ops %d and %d overlap on container %d ([%g,%g] vs [%g,%g])",
					ops[i-1], ops[i], c, prev.Start, prev.End, cur.Start, cur.End)
			}
		}
	}

	// I6 makespan-identity: Makespan is exactly the realized extent of the
	// mandatory operators (Eq. 1's td).
	first, last := math.Inf(1), 0.0
	var busy float64
	anyFlow := false
	for _, id := range ids {
		or := res.Ops[id]
		busy += or.End - or.Start
		if g.Op(id).Optional {
			continue
		}
		anyFlow = true
		first = math.Min(first, or.Start)
		last = math.Max(last, or.End)
	}
	wantMakespan := 0.0
	if anyFlow {
		wantMakespan = last - first
	}
	if math.Abs(res.Makespan-wantMakespan) > tightEps*math.Max(1, wantMakespan) {
		r.addf("makespan-identity", "Makespan %g, recomputed %g", res.Makespan, wantMakespan)
	}

	// I7 quantum-integrality: leases are prepaid whole quanta (§3), so the
	// total leased time (fragmentation + busy) is an integer number of
	// quanta even under faults (a failed container is charged through the
	// quantum containing the failure).
	leased := res.Fragmentation + busy
	quanta := leased / q
	if res.Fragmentation < -looseEps {
		r.addf("fragmentation-sign", "negative fragmentation %g", res.Fragmentation)
	}
	if math.Abs(quanta-math.Round(quanta)) > looseEps*math.Max(1, quanta) {
		r.addf("quantum-integrality", "leased seconds %g is %g quanta, not whole", leased, quanta)
	}

	// I8 money-lease-bounds: the price-weighted quanta charged are bounded
	// by the leased quanta times the cheapest and priciest container
	// weights (equality when the pool is homogeneous).
	minW, maxW := 1.0, 1.0
	if len(s.Types) > 0 && p.VMPerQuantum > 0 {
		minW, maxW = math.Inf(1), 0
		for _, t := range s.Types {
			w := t.PricePerQuantum / p.VMPerQuantum
			minW = math.Min(minW, w)
			maxW = math.Max(maxW, w)
		}
	}
	k := math.Round(quanta)
	if res.MoneyQuanta < k*minW-looseEps*math.Max(1, k) || res.MoneyQuanta > k*maxW+looseEps*math.Max(1, k) {
		r.addf("money-lease-bounds", "MoneyQuanta %g outside [%g, %g] for %g leased quanta",
			res.MoneyQuanta, k*minW, k*maxW, k)
	}

	// I9 lease-accounting (fault-free runs): recompute each container's
	// lease from first principles — whole quanta covering the last
	// mandatory activity, or the planned quanta for dedicated build
	// containers — and match money and fragmentation exactly.
	if len(cfg.Faults) == 0 {
		assignEnd := map[int]float64{}
		assignFlow := map[int]bool{}
		for _, a := range s.Assignments() {
			assignEnd[a.Container] = math.Max(assignEnd[a.Container], a.End)
			if !g.Op(a.Op).Optional {
				assignFlow[a.Container] = true
			}
		}
		var wantMoney, wantLeased float64
		for _, c := range conts {
			lastAct := 0.0
			if assignFlow[c] {
				for _, id := range byCont[c] {
					if !g.Op(id).Optional {
						lastAct = math.Max(lastAct, res.Ops[id].End)
					}
				}
			} else {
				lastAct = assignEnd[c] // dedicated build container: planned lease
			}
			leaseSec := float64(p.Quanta(lastAct)) * q
			for _, id := range byCont[c] {
				if end := res.Ops[id].End; end > leaseSec+looseEps {
					r.addf("lease-accounting", "op %d ends at %g past container %d's lease end %g",
						id, end, c, leaseSec)
				}
			}
			w := 1.0
			if len(s.Types) > 0 && p.VMPerQuantum > 0 {
				w = s.ContainerType(c).PricePerQuantum / p.VMPerQuantum
			}
			wantMoney += float64(p.Quanta(leaseSec)) * w
			wantLeased += leaseSec
		}
		if math.Abs(res.MoneyQuanta-wantMoney) > looseEps*math.Max(1, wantMoney) {
			r.addf("lease-accounting", "MoneyQuanta %g, recomputed %g", res.MoneyQuanta, wantMoney)
		}
		wantFrag := wantLeased - busy
		if math.Abs(res.Fragmentation-wantFrag) > looseEps*math.Max(1, math.Abs(wantFrag)) {
			r.addf("lease-accounting", "Fragmentation %g, recomputed %g", res.Fragmentation, wantFrag)
		}
	}

	// I10 fault-conservation: a fault-free run reports zero fault traffic;
	// a faulty run's counters respect the identity injected => recovered or
	// wasted, every re-placement is a recovery, and injections never exceed
	// the planned events.
	replacedFlags := 0
	for _, id := range ids {
		if res.Ops[id].Replaced {
			replacedFlags++
		}
	}
	if len(cfg.Faults) == 0 {
		if res.FaultsInjected != 0 || res.FaultsRecovered != 0 || res.ReplacedOps != 0 ||
			res.WastedQuanta != 0 || replacedFlags != 0 {
			r.addf("fault-conservation",
				"fault-free run reports injected=%d recovered=%d replaced=%d wasted=%g flags=%d",
				res.FaultsInjected, res.FaultsRecovered, res.ReplacedOps, res.WastedQuanta, replacedFlags)
		}
	} else {
		if res.FaultsInjected > len(cfg.Faults) {
			r.addf("fault-conservation", "injected %d > %d planned events", res.FaultsInjected, len(cfg.Faults))
		}
		if res.FaultsRecovered < res.ReplacedOps {
			r.addf("fault-conservation", "recovered %d < %d re-placements", res.FaultsRecovered, res.ReplacedOps)
		}
		if replacedFlags > res.ReplacedOps {
			r.addf("fault-conservation", "%d replaced flags > ReplacedOps %d", replacedFlags, res.ReplacedOps)
		}
		if res.WastedQuanta < 0 {
			r.addf("fault-conservation", "negative wasted quanta %g", res.WastedQuanta)
		}
		if res.FaultsInjected == 0 && (res.FaultsRecovered > 0 || res.WastedQuanta > 0 || res.ReplacedOps > 0) {
			r.addf("fault-conservation",
				"recovered=%d wasted=%g replaced=%d with zero injections",
				res.FaultsRecovered, res.WastedQuanta, res.ReplacedOps)
		}
		anyKill := false
		for _, e := range cfg.Faults {
			if e.KillsContainer() {
				anyKill = true
			}
		}
		if !anyKill && (res.ReplacedOps > 0 || replacedFlags > 0) {
			r.addf("fault-conservation", "re-placements without any kill-capable event")
		}

		// I11 dead-container-vacated: after a container's resolved failure
		// time, nothing runs on it. Resolution replicates the executor's
		// deterministic AnyContainer rotation over the schedule's active
		// containers.
		for c, fa := range resolveKillTimes(cfg.Faults, s) {
			for _, id := range byCont[c] {
				if end := res.Ops[id].End; end > fa+looseEps {
					r.addf("dead-container", "op %d ends at %g on container %d, failed at %g",
						id, end, c, fa)
				}
			}
		}
	}

	// I12 exact-replay: with exact estimates and no faults, every mandatory
	// operator replays its planned interval and the realized aggregates
	// equal the planned ones.
	if cfg.Exact {
		for _, a := range s.Assignments() {
			if g.Op(a.Op).Optional {
				continue
			}
			or := res.Ops[a.Op]
			if or.Container != a.Container ||
				math.Abs(or.Start-a.Start) > tightEps || math.Abs(or.End-a.End) > tightEps {
				r.addf("exact-replay", "op %d realized [%g,%g]@%d, planned [%g,%g]@%d",
					a.Op, or.Start, or.End, or.Container, a.Start, a.End, a.Container)
			}
		}
		if anyFlow && math.Abs(res.Makespan-s.Makespan()) > tightEps*math.Max(1, s.Makespan()) {
			r.addf("exact-replay", "realized makespan %g, planned %g", res.Makespan, s.Makespan())
		}
	}

	return r.Err()
}

// resolveKillTimes replicates the executor's fault resolution for kill
// events: AnyContainer targets rotate through the schedule's active
// containers by sequence number, and an event landing on an
// already-failed container is ignored if the container is gone by then.
func resolveKillTimes(events []fault.Event, s *sched.Schedule) map[int]float64 {
	var active []int
	for c := 0; c < s.NumSlots(); c++ {
		if s.ContainerOps(c) > 0 {
			active = append(active, c)
		}
	}
	if len(active) == 0 {
		return nil
	}
	failAt := map[int]float64{}
	for _, e := range events {
		if !e.KillsContainer() {
			continue
		}
		c := e.Container
		if c == fault.AnyContainer {
			c = active[e.Seq%len(active)]
		}
		if prev, dead := failAt[c]; dead && prev <= e.At {
			continue
		}
		failAt[c] = e.At
	}
	return failAt
}

// AuditSchedule verifies a planned schedule's internal consistency beyond
// Schedule.Validate: the §3 idle-slot structure (slots sit inside single
// leased quanta and never overlap work), the money/lease identity, the
// makespan cache and the §5.3.1 sequential-idle tie-break value.
func AuditSchedule(s *sched.Schedule) error {
	r := &Report{}
	p := s.Pricing
	q := p.QuantumSeconds
	if err := s.Validate(); err != nil {
		r.addf("schedule-valid", "%v", err)
	}

	assigns := s.Assignments()
	lastEnd := map[int]float64{}
	var busy float64
	type iv struct{ start, end float64 }
	contIvs := map[int][]iv{}
	for _, a := range assigns {
		lastEnd[a.Container] = math.Max(lastEnd[a.Container], a.End)
		busy += a.End - a.Start
		contIvs[a.Container] = append(contIvs[a.Container], iv{a.Start, a.End})
	}

	// Money identity: MoneyQuanta is the weighted leased quanta.
	var wantMQ, wantLease float64
	for c, end := range lastEnd {
		n := float64(p.Quanta(end))
		w := 1.0
		if len(s.Types) > 0 && p.VMPerQuantum > 0 {
			w = s.ContainerType(c).PricePerQuantum / p.VMPerQuantum
		}
		wantMQ += n * w
		wantLease += n * q
	}
	if got := s.MoneyQuanta(); math.Abs(got-wantMQ) > looseEps*math.Max(1, wantMQ) {
		r.addf("schedule-money", "MoneyQuanta %g, recomputed %g", got, wantMQ)
	}

	// Makespan cache against a from-scratch recompute.
	first, last := math.Inf(1), 0.0
	anyFlow := false
	for _, a := range assigns {
		if s.Graph.Op(a.Op).Optional {
			continue
		}
		anyFlow = true
		first = math.Min(first, a.Start)
		last = math.Max(last, a.End)
	}
	wantMS := 0.0
	if anyFlow {
		wantMS = last - first
	} else {
		for _, a := range assigns {
			wantMS = math.Max(wantMS, a.End)
		}
	}
	if got := s.Makespan(); math.Abs(got-wantMS) > tightEps*math.Max(1, wantMS) {
		r.addf("schedule-makespan", "Makespan %g, recomputed %g", got, wantMS)
	}

	// Idle-slot structure (§3): each slot sits inside one leased quantum of
	// a used container, overlaps no assignment, and the slots sum to the
	// fragmentation identity leased - busy.
	slots := s.IdleSlots()
	var slotSum float64
	for i, sl := range slots {
		slotSum += sl.Size()
		if sl.Size() <= 0 {
			r.addf("idle-slots", "slot %d has non-positive size %g", i, sl.Size())
		}
		if sl.Start < 0 {
			r.addf("idle-slots", "slot %d starts at negative time %g", i, sl.Start)
		}
		if qi := int((sl.Start + tightEps) / q); qi != sl.Quantum {
			r.addf("idle-slots", "slot %d labeled quantum %d but starts in quantum %d", i, sl.Quantum, qi)
		}
		if sl.End > float64(sl.Quantum+1)*q+tightEps {
			r.addf("idle-slots", "slot %d crosses its quantum boundary (%g > %g)",
				i, sl.End, float64(sl.Quantum+1)*q)
		}
		leaseEnd := float64(p.Quanta(lastEnd[sl.Container])) * q
		if sl.End > leaseEnd+tightEps {
			r.addf("idle-slots", "slot %d ends at %g past container %d's lease %g",
				i, sl.End, sl.Container, leaseEnd)
		}
		if len(contIvs[sl.Container]) == 0 {
			r.addf("idle-slots", "slot %d on unused container %d", i, sl.Container)
		}
		for _, v := range contIvs[sl.Container] {
			if sl.Start+tightEps < v.end && v.start+tightEps < sl.End {
				r.addf("idle-slots", "slot %d [%g,%g] overlaps work [%g,%g] on container %d",
					i, sl.Start, sl.End, v.start, v.end, sl.Container)
			}
		}
		if i > 0 {
			prev := slots[i-1]
			if prev.Container > sl.Container ||
				(prev.Container == sl.Container && prev.Start > sl.Start) {
				r.addf("idle-slots", "slots %d and %d out of (container, start) order", i-1, i)
			}
		}
	}
	wantFrag := wantLease - busy
	if math.Abs(slotSum-wantFrag) > looseEps*math.Max(1, math.Abs(wantFrag)) {
		r.addf("idle-slots", "slots sum to %g, leased - busy = %g", slotSum, wantFrag)
	}
	if got := s.Fragmentation(); math.Abs(got-slotSum) > looseEps*math.Max(1, slotSum) {
		r.addf("idle-slots", "Fragmentation %g, slot sum %g", got, slotSum)
	}

	// §5.3.1 tie-break value: at least the largest single slot (runs merge
	// slots, never shrink them) and at most the total idle time.
	maxSlot := 0.0
	for _, sl := range slots {
		maxSlot = math.Max(maxSlot, sl.Size())
	}
	seqIdle := s.MaxSequentialIdle()
	if seqIdle+tightEps < maxSlot {
		r.addf("sequential-idle", "MaxSequentialIdle %g < largest slot %g", seqIdle, maxSlot)
	}
	if seqIdle > slotSum+looseEps {
		r.addf("sequential-idle", "MaxSequentialIdle %g > total idle %g", seqIdle, slotSum)
	}
	return r.Err()
}

// AuditFrontier verifies a skyline: every member passes AuditSchedule and
// no member dominates (or duplicates, on both objectives) another —
// the defining property of the Pareto frontier of Algorithm 4.
func AuditFrontier(skyline []*sched.Schedule) error {
	r := &Report{}
	type pt struct{ t, m float64 }
	pts := make([]pt, len(skyline))
	for i, s := range skyline {
		if err := AuditSchedule(s); err != nil {
			r.addf("frontier-member", "schedule %d: %v", i, err)
		}
		pts[i] = pt{s.Makespan(), s.MoneyQuanta()}
	}
	for i := range pts {
		for j := range pts {
			if i == j {
				continue
			}
			a, b := pts[i], pts[j]
			if a.t <= b.t && a.m <= b.m && (a.t < b.t || a.m < b.m) {
				r.addf("frontier-dominance", "schedule %d (t=%g, m=%g) dominates %d (t=%g, m=%g)",
					i, a.t, a.m, j, b.t, b.m)
			}
			if i < j && a.t == b.t && a.m == b.m {
				r.addf("frontier-dominance", "schedules %d and %d duplicate objectives (t=%g, m=%g)",
					i, j, a.t, a.m)
			}
		}
	}
	return r.Err()
}

// AuditGain verifies the gain model against Eq. 2-5: the time and money
// gains recomputed independently from the raw history, the weighted
// combination of Eq. 3, the beneficial test of §5.1, and the contents and
// order of Rank and NonBeneficial. FadeOverride evaluators are audited
// through the same override. The recomputation below is the oracle for
// gain's one production walk: it applies the window to every record it is
// given, so it holds equally over a history trimmed by Evaluator.Record
// (for now at or after the last recorded When) and an untrimmed one.
func AuditGain(e *gain.Evaluator, cands []gain.Costs, now float64) error {
	r := &Report{}
	pp := e.Params
	q := e.Pricing.QuantumSeconds
	mc := e.Pricing.VMPerQuantum

	fade := func(name string, sinceQuanta float64) float64 {
		if e.FadeOverride != nil {
			return e.FadeOverride(name, sinceQuanta)
		}
		return pp.Fade(sinceQuanta)
	}
	fadedSum := func(name string, pick func(gain.Record) float64) float64 {
		var sum float64
		for _, rec := range e.History.Records(name) {
			since := (now - rec.When) / q
			if since < 0 {
				since = 0
			}
			if pp.WindowW > 0 && since > pp.WindowW {
				continue
			}
			sum += fade(name, since) * pick(rec)
		}
		return sum
	}

	// Fade is a weight: 1 at t=0, in [0,1], non-increasing.
	if f0 := pp.Fade(0); f0 != 1 {
		r.addf("fade-bounds", "Fade(0) = %g, want 1", f0)
	}
	prevF := math.Inf(1)
	for t := 0.0; t <= 16; t += 0.5 {
		f := pp.Fade(t)
		if f < 0 || f > 1 {
			r.addf("fade-bounds", "Fade(%g) = %g outside [0,1]", t, f)
		}
		if f > prevF+tightEps {
			r.addf("fade-bounds", "Fade not non-increasing at t=%g", t)
		}
		prevF = f
	}

	gts := make(map[string]float64, len(cands))
	gms := make(map[string]float64, len(cands))
	evals := make([]gain.Ranked, 0, len(cands))
	for _, c := range cands {
		// Eq. 5: gt = sum(fade * gtd) - ti.
		ev := e.Evaluate(c, now)
		evals = append(evals, ev)
		wantGT := fadedSum(c.Name, func(rec gain.Record) float64 { return rec.TimeGain }) - c.BuildQuanta
		gt := ev.TimeGain
		if math.Abs(gt-wantGT) > looseEps*math.Max(1, math.Abs(wantGT)) {
			r.addf("eq5-time-gain", "%s: TimeGain %g, recomputed %g", c.Name, gt, wantGT)
		}
		// Eq. 4: gm = Mc * sum(fade * gmd) - (Mc*mi + st(idx, W)).
		w := pp.WindowW
		if w <= 0 {
			w = 1
		}
		wantGM := mc*fadedSum(c.Name, func(rec gain.Record) float64 { return rec.MoneyGain }) -
			(mc*c.BuildMoneyQuanta + e.Pricing.StorageCost(c.SizeMB, w))
		gm := ev.MoneyGain
		if math.Abs(gm-wantGM) > looseEps*math.Max(1, math.Abs(wantGM)) {
			r.addf("eq4-money-gain", "%s: MoneyGain %g, recomputed %g", c.Name, gm, wantGM)
		}
		// Eq. 3: g = alpha*Mc*gt + (1-alpha)*gm.
		wantG := pp.Alpha*mc*gt + (1-pp.Alpha)*gm
		for _, g := range []float64{ev.Gain, e.Gain(c, now)} {
			if math.Abs(g-wantG) > looseEps*math.Max(1, math.Abs(wantG)) {
				r.addf("eq3-weighted-gain", "%s: Gain %g, want %g", c.Name, g, wantG)
			}
		}
		// §5.1 beneficial test.
		if ben := ev.Beneficial(); ben != (gt > 0 && gm > 0) {
			r.addf("beneficial-test", "%s: Beneficial=%v with gt=%g gm=%g", c.Name, ben, gt, gm)
		}
		gts[c.Name], gms[c.Name] = gt, gm
	}

	// Rank: exactly the beneficial candidates, sorted by descending gain
	// (ties by name), gains matching the per-candidate evaluations.
	ranked := gain.Rank(evals)
	inRank := map[string]bool{}
	for i, rk := range ranked {
		inRank[rk.Costs.Name] = true
		if gts[rk.Costs.Name] <= 0 || gms[rk.Costs.Name] <= 0 {
			r.addf("rank-contents", "%s ranked but not beneficial", rk.Costs.Name)
		}
		if math.Abs(rk.TimeGain-gts[rk.Costs.Name]) > looseEps*math.Max(1, math.Abs(rk.TimeGain)) ||
			math.Abs(rk.MoneyGain-gms[rk.Costs.Name]) > looseEps*math.Max(1, math.Abs(rk.MoneyGain)) {
			r.addf("rank-contents", "%s ranked with stale gains", rk.Costs.Name)
		}
		if i > 0 {
			prev := ranked[i-1]
			if prev.Gain < rk.Gain || (prev.Gain == rk.Gain && prev.Costs.Name > rk.Costs.Name) {
				r.addf("rank-order", "rank not sorted at %d (%s then %s)", i, prev.Costs.Name, rk.Costs.Name)
			}
		}
	}
	for _, c := range cands {
		if gts[c.Name] > 0 && gms[c.Name] > 0 && !inRank[c.Name] {
			r.addf("rank-contents", "beneficial %s missing from rank", c.Name)
		}
	}

	// Deletion test (Algorithm 1): exactly the candidates with both gains
	// non-positive, in name order, disjoint from the rank, carrying the very
	// gains the per-candidate evaluations returned.
	nonBen := e.NonBeneficial(cands, now)
	nbSet := map[string]bool{}
	for i, nb := range nonBen {
		name := nb.Costs.Name
		nbSet[name] = true
		if i > 0 && nonBen[i-1].Costs.Name >= name {
			r.addf("non-beneficial", "names not sorted at %d (%s then %s)", i, nonBen[i-1].Costs.Name, name)
		}
		if inRank[name] {
			r.addf("non-beneficial", "%s both ranked and deletable", name)
		}
		if gts[name] > 0 || gms[name] > 0 {
			r.addf("non-beneficial", "%s deletable with gt=%g gm=%g", name, gts[name], gms[name])
		}
		if nb.TimeGain != gts[name] || nb.MoneyGain != gms[name] {
			r.addf("non-beneficial", "%s deletable with gains (%g, %g), evaluated (%g, %g)",
				name, nb.TimeGain, nb.MoneyGain, gts[name], gms[name])
		}
	}
	for _, c := range cands {
		if gts[c.Name] <= 0 && gms[c.Name] <= 0 && !nbSet[c.Name] {
			r.addf("non-beneficial", "%s has both gains non-positive but is not deletable", c.Name)
		}
	}

	// Idempotence: an evaluation reads the history and writes nothing, so
	// re-evaluating at the same time point must reproduce the earlier
	// floats bit for bit — across the Rank and NonBeneficial calls the
	// audit itself made in between.
	for _, c := range cands {
		ev := e.Evaluate(c, now)
		if ev.TimeGain != gts[c.Name] {
			r.addf("evaluation-idempotence", "%s: TimeGain drifted %g -> %g at fixed now", c.Name, gts[c.Name], ev.TimeGain)
		}
		if ev.MoneyGain != gms[c.Name] {
			r.addf("evaluation-idempotence", "%s: MoneyGain drifted %g -> %g at fixed now", c.Name, gms[c.Name], ev.MoneyGain)
		}
	}
	return r.Err()
}

// AuditTree verifies a B+Tree's structure plus the §3 geometric-series
// storage bound: with minimum internal fanout two, total nodes are bounded
// by leaves * (1 + 1/2 + 1/4 + ...) = 2*leaves, and the height by
// 1 + ceil(log2(leaves)).
func AuditTree(t *bptree.Tree) error {
	r := &Report{}
	if err := t.Validate(); err != nil {
		r.addf("tree-valid", "%v", err)
		return r.Err() // structure broken; bounds would be noise
	}
	nodes, leaves := t.Stats()
	if leaves < 1 || nodes < leaves {
		r.addf("tree-shape", "%d nodes, %d leaves", nodes, leaves)
	}
	if nodes > 2*leaves-1 {
		r.addf("tree-geometric-bound", "%d nodes > 2*%d-1 leaves (internal fanout < 2)", nodes, leaves)
	}
	if leaves > t.Len() && t.Len() > 0 {
		r.addf("tree-geometric-bound", "%d leaves for %d entries", leaves, t.Len())
	}
	maxH := 1
	if leaves > 1 {
		maxH = 1 + int(math.Ceil(math.Log2(float64(leaves))))
	}
	if h := t.Height(); h > maxH {
		r.addf("tree-geometric-bound", "height %d > bound %d for %d leaves", h, maxH, leaves)
	}
	// The scan order is the sorted-leaf contract the executor's range and
	// group-by operators rely on; its length is the entry count.
	count := 0
	prev := int64(math.MinInt64)
	ok := true
	t.Scan(func(k, _ int64) bool {
		if k < prev {
			ok = false
		}
		prev = k
		count++
		return true
	})
	if !ok {
		r.addf("tree-scan-order", "Scan visited keys out of order")
	}
	if count != t.Len() {
		r.addf("tree-scan-order", "Scan visited %d entries, Len() = %d", count, t.Len())
	}
	return r.Err()
}
