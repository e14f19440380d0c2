package core

import (
	"context"
	"slices"
	"sort"

	"idxflow/internal/data"
	"idxflow/internal/dataflow"
	"idxflow/internal/gain"
	"idxflow/internal/interleave"
	"idxflow/internal/provenance"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
	"idxflow/internal/telemetry"
)

// pass is everything that is true for one submit only. SubmitCtx makes one
// and hands it from stage to stage; no per-submit fact is kept anywhere else
// (the service's Config is never written after NewService). A field is set
// by the stage it is listed under.
type pass struct {
	// admit
	id        provenance.FlowID
	now       float64 // decision time: the service clock after the IssuedAt catch-up
	flow      *dataflow.Flow
	span      *telemetry.Span
	recording bool // the flight recorder was active at admission
	res       FlowResult
	// rewrite
	touched map[string]bool // partition paths the flow reads (gain-driven strategies only)
	g       *dataflow.Graph // the flow's DAG at its index-accelerated runtimes
	// offer
	builds []buildCandidate // the build operators appended to g, in id order
	// schedule
	skyline []*sched.Schedule
	chosen  *sched.Schedule
	// execute
	run sim.Result
}

// buildCandidate is one index-build partition operator offered to the
// interleaver.
type buildCandidate struct {
	index string
	pid   int
	op    dataflow.OpID
	gain  float64
}

// offerBuild appends the operator building partition pid of st's index to
// the rewritten graph and to the candidates.
func (p *pass) offerBuild(s *Service, st *data.BuildState, name string, pid int, gain float64) {
	idx := st.Index
	seconds := idx.BuildSeconds(idx.Table.Partitions[pid], s.cfg.Sched.Spec)
	id := p.g.Add(dataflow.BuildOp(idx.PartitionPath(pid), seconds))
	p.builds = append(p.builds, buildCandidate{index: name, pid: pid, op: id, gain: gain})
}

// candidate returns the build candidate behind operator op of g. Only
// offerBuild adds to g, so build operators carry consecutive ids and the
// lookup is an index, not a map.
func (p *pass) candidate(op dataflow.OpID) (buildCandidate, bool) {
	if len(p.builds) == 0 {
		return buildCandidate{}, false
	}
	i := int(op - p.builds[0].op)
	if i < 0 || i >= len(p.builds) || p.builds[i].op != op {
		return buildCandidate{}, false
	}
	return p.builds[i], true
}

// SubmitCtx processes one dataflow through Algorithm 1 and executes it,
// with cancellation; a nil ctx means context.Background(). It is a stage
// per step over one pass (DESIGN "Submit pipeline" maps the stages to the
// paper's line numbers). The order is fixed: it is the order the service's
// RNG is drawn in, the order provenance events get their Seq in and the
// order storage accrues in, and the golden tables pin all three.
func (s *Service) SubmitCtx(ctx context.Context, flow *dataflow.Flow) FlowResult {
	if ctx != nil && ctx.Err() != nil {
		return FlowResult{Name: flow.Name, Cancelled: true}
	}
	p := s.admit(flow)
	defer p.span.End()
	s.rewrite(p)
	s.offer(p)
	s.evict(p)
	if !s.schedule(p) {
		return p.res // unschedulable: nothing ran, nothing is recorded
	}
	s.dedicate(p)

	// Everything above is a decision taken at p.now and stands: the clock
	// catch-up, the batch updates, the gain-history append, the evictions
	// and the events recorded so far (FlowAdmitted … BuildPlaced). Everything
	// below is an effect of the run, and a submission cancelled before or
	// during its execution stops here: nothing is charged, committed,
	// settled or recorded in Metrics and the clock does not advance, so a
	// cancelled flow can leave decision events without appearing in any
	// result set.
	if !s.execute(ctx, p) {
		p.res.Cancelled = true
		return p.res
	}
	s.commit(p)
	s.settle(p)
	return p.res
}

// admit assigns the flow its id, catches the clock up with its issue time,
// which fixes the decision time, and applies the batch updates due by then.
// Every event of the pass carries that id, and so does its root span, whose
// children inherit it; the stages stamp the events.
func (s *Service) admit(flow *dataflow.Flow) *pass {
	s.nextFlow++
	p := &pass{id: s.nextFlow, flow: flow, recording: s.cfg.Provenance.Active()}
	p.span = s.cfg.Tracer.StartSpan("service.submit", uint64(p.id))
	s.ins.flowsSubmitted.Inc()
	if flow.IssuedAt > s.clock {
		s.clock = flow.IssuedAt
	}
	p.now = s.clock
	if p.recording {
		s.cfg.Provenance.Append(provenance.Event{
			Kind: provenance.KindFlowAdmitted, Flow: p.id, T: p.now,
			Name: flow.Name, Count: len(flow.Graph.Ops()),
		})
	}
	s.applyBatchUpdates(p)
	p.res = FlowResult{Name: flow.Name, FlowID: p.id, Start: p.now}
	return p
}

// applyBatchUpdates performs any batch data updates due by the current
// clock: a fraction of all partitions get a new version, and index
// partitions built on them are invalidated and freed from storage (§3).
func (s *Service) applyBatchUpdates(p *pass) {
	if s.cfg.UpdateEveryQuanta <= 0 {
		return
	}
	period := s.cfg.UpdateEveryQuanta * s.cfg.Sched.Pricing.QuantumSeconds
	frac := s.cfg.UpdateFraction
	if frac <= 0 {
		frac = 0.01
	}
	for s.clock-s.lastUpdate >= period {
		s.lastUpdate += period
		invalidated := 0
		for _, f := range s.db.Files {
			for _, part := range f.Table.Partitions {
				if s.rng.Float64() >= frac {
					continue
				}
				n, err := s.db.Catalog.ApplyUpdate(f.Table.Name, part.ID)
				if err != nil {
					continue
				}
				s.ins.invalidated.Add(float64(n))
				invalidated += n
			}
		}
		if invalidated > 0 && p.recording {
			s.cfg.Provenance.Append(provenance.Event{
				Kind: provenance.KindIndexInvalidated, Flow: p.id,
				T: s.lastUpdate, Name: "batch-update", Count: invalidated,
			})
		}
	}
}

// rewrite clones the flow's graph at the runtimes the available indexes
// give it (Alg. 2 lines 1-5). Only the gain-driven strategies do: exploiting
// an index requires the tuner's integration with the optimizer, which the
// random baseline lacks — it pays for indexes the workload never benefits
// from, the §6.5 observation that random "does not greatly affect the
// number of finished dataflows" while its storage cost grows.
//
// Each usable index's speedups are scaled by the indexed fraction f of the
// partitions the flow touches (§3: "each operator can make use of those
// [indexes] associated to partitions it accesses"): the accelerated part
// runs at time/s and the rest at full speed, so s_eff = 1 / (f/s + (1-f)).
func (s *Service) rewrite(p *pass) {
	if !s.cfg.Strategy.gainDriven() {
		p.g = p.flow.Graph.Clone()
		return
	}
	p.touched = make(map[string]bool, len(p.flow.Inputs))
	for _, path := range p.flow.Inputs {
		p.touched[path] = true
	}
	avail := make(map[string]bool)
	var scaled []dataflow.IndexUse
	for _, iu := range p.flow.Indexes {
		st := s.db.Catalog.State(iu.Index)
		var f float64
		if st != nil && st.BuiltCount() > 0 {
			f = touchedFraction(st, p.touched)
		}
		if f <= 0 {
			continue // ApplyIndexes skips what is not in avail
		}
		cp := dataflow.IndexUse{Index: iu.Index, Speedup: make(map[dataflow.OpID]float64, len(iu.Speedup))}
		for id, sp := range iu.Speedup {
			cp.Speedup[id] = 1 / (f/sp + (1 - f))
		}
		scaled = append(scaled, cp)
		// The catalog's own string, not iu.Index: the result outlives the
		// submitted flow and should hold nothing of it.
		name := st.Name()
		avail[name] = true
		p.res.IndexesUsed = append(p.res.IndexesUsed, name)
	}
	sort.Strings(p.res.IndexesUsed)
	rewritten := dataflow.Flow{Graph: p.flow.Graph, Indexes: scaled}
	p.g = rewritten.ApplyIndexes(avail, func(name string) float64 {
		// Reading one index partition from storage before the operator.
		idx := s.db.IndexByName(name)
		if idx == nil || len(idx.Table.Partitions) == 0 {
			return 0
		}
		return s.cfg.Sched.Spec.TransferSeconds(idx.SizeMB() / float64(len(idx.Table.Partitions)))
	})
}

// touchedFraction returns the fraction of the flow's touched partitions of
// the index's table whose index partition is built. It returns 0 when the
// flow touches none of the table.
func touchedFraction(st *data.BuildState, touched map[string]bool) float64 {
	total, built := 0, 0
	for _, part := range st.Index.Table.Partitions {
		if !touched[part.Path] {
			continue
		}
		total++
		if st.Built(part.ID) {
			built++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(built) / float64(total)
}

// offer is Alg. 1 lines 2-9: update Hd, rank, and append the build operators
// worth offering to the rewritten graph. The random baseline picks blindly.
func (s *Service) offer(p *pass) {
	switch {
	case s.cfg.Strategy.gainDriven():
		s.recordGains(p)
		span := p.span.StartSpan("service.rank")
		evals := s.evaluate(p)
		ranked := gain.Rank(evals)
		span.End()
		s.ins.gainEvaluated.Add(float64(len(evals)))
		s.ins.gainBeneficial.Add(float64(len(ranked)))
		s.offerRanked(p, ranked)
	case s.cfg.Strategy == RandomIndex:
		s.offerRandom(p)
	}
	s.ins.buildOpsOffered.Add(float64(len(p.builds)))
	for _, b := range p.builds {
		s.ins.estGain.Observe(b.gain)
	}
}

// recordGains appends this flow's per-index gains to the history (the Hd
// update of Algorithm 1): gtd is the serial operator time the index would
// save and gmd the equivalent money minus the cost of reading the index
// partitions the flow touches from storage. Records are stamped with the
// decision time, not the arrival time: per §4, δT is "0 for the ones that
// are currently running or queued".
func (s *Service) recordGains(p *pass) {
	spec, q := s.cfg.Sched.Spec, s.cfg.Sched.Pricing.QuantumSeconds
	for _, iu := range p.flow.Indexes {
		idx := s.db.IndexByName(iu.Index)
		if idx == nil {
			continue
		}
		if s.fader != nil {
			s.fader.ObserveRequested(iu.Index, p.now/q)
		}
		var readMB float64
		for _, part := range idx.Table.Partitions {
			if p.touched[part.Path] {
				readMB += idx.PartitionSizeMB(part)
			}
		}
		gtd := p.flow.TimeSavedBy(iu.Index) / q
		gmd := gtd - spec.TransferSeconds(readMB)/q
		if gmd < 0 {
			gmd = 0
		}
		if gtd > 0 {
			s.ins.realGain.Observe(gtd)
		}
		s.eval.Record(iu.Index, gain.Record{When: p.now, TimeGain: gtd, MoneyGain: gmd})
	}
}

// evaluate places every candidate index in the space of Fig. 4 at the
// decision time — an index is a candidate when it has built partitions or
// gain history — and records each verdict of the §5.1 test, adopted or
// rejected, with the Eq. 2–5 inputs that justified it.
func (s *Service) evaluate(p *pass) []gain.Ranked {
	var evals []gain.Ranked
	for _, name := range s.db.Catalog.IndexNames() {
		st := s.db.Catalog.State(name)
		records := len(s.eval.History.Records(name))
		if st.BuiltCount() == 0 && records == 0 {
			continue
		}
		r := s.eval.Evaluate(s.costsOf(name, st), p.now)
		evals = append(evals, r)
		if !p.recording {
			continue
		}
		ev := provenance.Event{
			Kind: provenance.KindIndexRejected, Flow: p.id, T: p.now,
			Name: name, TimeGain: r.TimeGain, MoneyGain: r.MoneyGain,
			BuildQuanta: r.Costs.BuildQuanta, SizeMB: r.Costs.SizeMB,
			FadeD: s.eval.Params.FadeD, WindowW: s.eval.Params.WindowW,
			Records: records,
		}
		if r.Beneficial() {
			ev.Kind, ev.Gain = provenance.KindIndexAdopted, r.Gain
		}
		s.cfg.Provenance.Append(ev)
	}
	return evals
}

// costsOf returns the gain.Costs of an index at the current state:
// remaining build time over missing partitions and the full storage
// footprint.
func (s *Service) costsOf(name string, st *data.BuildState) gain.Costs {
	idx := st.Index
	var buildSec float64
	for _, pid := range st.MissingPartitions() {
		buildSec += idx.BuildSeconds(idx.Table.Partitions[pid], s.cfg.Sched.Spec)
	}
	bq := buildSec / s.cfg.Sched.Pricing.QuantumSeconds
	return gain.Costs{Name: name, BuildQuanta: bq, BuildMoneyQuanta: bq, SizeMB: idx.SizeMB()}
}

// offerRanked offers build operators for the top-ranked beneficial indexes'
// missing partitions, up to MaxBuildOps. Partitions the current flow touches
// come first: their index partitions pay off immediately when the same
// inputs are read again.
func (s *Service) offerRanked(p *pass, ranked []gain.Ranked) {
	for _, r := range ranked {
		st := s.db.Catalog.State(r.Costs.Name)
		if st == nil {
			continue
		}
		missing := st.MissingPartitions()
		if len(missing) == 0 {
			continue
		}
		parts := st.Index.Table.Partitions
		sort.SliceStable(missing, func(a, b int) bool {
			return p.touched[parts[missing[a]].Path] && !p.touched[parts[missing[b]].Path]
		})
		perPart := r.Gain / float64(len(missing))
		for _, pid := range missing {
			if len(p.builds) >= s.cfg.MaxBuildOps {
				return
			}
			p.offerBuild(s, st, r.Costs.Name, pid, perPart)
		}
	}
}

// offerRandom is the random baseline's candidate set (§6): a random
// selection from the entire potential set, not the current flow's indexes,
// so what gets built rarely matches what future dataflows need.
func (s *Service) offerRandom(p *pass) {
	names := s.db.Catalog.IndexNames()
	if len(names) == 0 {
		return
	}
	// The baseline attempts an eighth of the Gain strategy's build budget:
	// its picks are blind, and appended builds mostly die at quantum
	// expiry anyway.
	budget := s.cfg.MaxBuildOps / 8
	if budget < 1 {
		budget = 1
	}
	for attempts := 0; len(p.builds) < budget && attempts < 4*budget; attempts++ {
		name := names[s.rng.Intn(len(names))]
		st := s.db.Catalog.State(name)
		if st == nil {
			continue
		}
		missing := st.MissingPartitions()
		if len(missing) == 0 {
			continue
		}
		pid := missing[s.rng.Intn(len(missing))]
		if !slices.ContainsFunc(p.builds, func(b buildCandidate) bool { return b.index == name && b.pid == pid }) {
			p.offerBuild(s, st, name, pid, 1)
		}
	}
}

// evict is Alg. 1 lines 13-19, at the ranking's decision time: every
// available index whose time AND money gains are non-positive — and, when
// DeletionGraceQuanta is set, that no dataflow listed as useful within the
// grace period — is dropped and its storage freed. A built index pays no
// further build cost in that judgement. Only the Gain strategy deletes.
func (s *Service) evict(p *pass) {
	if s.cfg.Strategy != Gain {
		return
	}
	q := s.cfg.Sched.Pricing.QuantumSeconds
	grace := s.cfg.DeletionGraceQuanta * q
	var candidates []gain.Costs
	for _, name := range s.db.Catalog.IndexNames() {
		if !s.db.Catalog.Available(name) {
			continue
		}
		if grace > 0 && p.now-s.eval.History.LastWhen(name) < grace {
			continue
		}
		candidates = append(candidates, gain.Costs{Name: name, SizeMB: s.db.Catalog.State(name).Index.SizeMB()})
	}
	for _, r := range s.eval.NonBeneficial(candidates, p.now) {
		name := r.Costs.Name
		if p.recording {
			// The non-positive gains that justified the drop: the event
			// carries the Eq. 4/5 evidence.
			s.cfg.Provenance.Append(provenance.Event{
				Kind: provenance.KindIndexEvicted, Flow: p.id, T: p.now,
				Name:     name,
				TimeGain: r.TimeGain, MoneyGain: r.MoneyGain,
				SizeMB: r.Costs.SizeMB,
				FadeD:  s.cfg.Gain.FadeD, WindowW: s.cfg.Gain.WindowW,
				Records: len(s.eval.History.Records(name)),
			})
		}
		s.db.Catalog.Drop(name)
		p.res.Deleted = append(p.res.Deleted, name)
		if s.fader != nil {
			s.fader.ObserveDeleted(name, p.now/q)
		}
	}
	s.ins.indexesDeleted.Add(float64(len(p.res.Deleted)))
	if s.fader != nil {
		// Kept-but-idle indexes suggest the fade is too slow.
		for _, c := range candidates {
			if idle := (p.now - s.eval.History.LastWhen(c.Name)) / q; idle > 0 {
				s.fader.ObserveIdle(c.Name, idle)
			}
		}
	}
}

// schedule is Alg. 1 lines 10-11: compute the skyline, interleave the
// offered builds with the configured §5.3 algorithm and pick the fastest
// schedule. It reports false when the flow cannot be scheduled.
func (s *Service) schedule(p *pass) bool {
	if s.cfg.Strategy == RandomIndex {
		p.skyline = s.runSkyline(p, p.span, false)
		interleave.Random(p.skyline, p.g, s.rng)
	} else {
		s.interleave(p)
	}
	p.chosen = sched.Fastest(p.skyline)
	if p.chosen == nil {
		return false
	}
	if p.recording {
		s.recordSchedule(p)
	}
	// Idle-slot accounting over the chosen schedule, before dedicated-build
	// containers are appended: interleaved builds occupy slack the flow's
	// operators left behind, and the remaining fragmentation is idle time
	// discovered but not fillable.
	var interleavedSecs float64
	for _, a := range p.chosen.Assignments() {
		if p.chosen.Graph.Op(a.Op).Optional {
			interleavedSecs += a.End - a.Start
		}
	}
	s.ins.idleUsed.Add(interleavedSecs)
	s.ins.idleDiscovered.Add(p.chosen.Fragmentation() + interleavedSecs)
	return true
}

// runSkyline is the pass's one run of the tenant's skyline scheduler
// (Alg. 4), with the optional operators of the rewritten graph or without,
// timed by a child of the stage span that encloses it.
func (s *Service) runSkyline(p *pass, stage *telemetry.Span, withOptional bool) []*sched.Schedule {
	span := stage.StartSpan("sched.skyline")
	hits := s.skyline.WarmStats().Hits
	var skyline []*sched.Schedule
	if withOptional {
		skyline = s.skyline.ScheduleWithOptional(p.g)
	} else {
		skyline = s.skyline.Schedule(p.g)
	}
	// A warm hit searched nothing; a cold run adds its search effort.
	if s.skyline.WarmStats().Hits > hits {
		s.ins.warmHits.Inc()
	}
	effort := s.skyline.LastRun()
	s.ins.skylineIterations.Add(float64(effort.Iterations))
	s.ins.skylineCandidates.Add(float64(effort.Candidates))
	for _, n := range effort.Frontier {
		s.ins.skylineFrontier.Observe(float64(n))
	}
	span.End()
	return skyline
}

// interleave computes the skyline with LP (Algorithm 2) or online (§5.3.2)
// interleaving and reports the pass's placement summary: how many optional
// operators found a home across the skyline, out of how many the rewritten
// graph carries (§5.3).
func (s *Service) interleave(p *pass) {
	online := s.cfg.Algo == OnlineInterleave
	name := "interleave.lp"
	if online {
		name = "interleave.online"
	}
	span := p.span.StartSpan(name)
	p.skyline = s.runSkyline(p, span, online)
	placed := 0
	if online {
		for _, sc := range p.skyline {
			for _, a := range sc.Assignments() {
				if p.g.Op(a.Op).Optional {
					placed++
				}
			}
		}
	} else {
		gains := make(map[dataflow.OpID]float64, len(p.builds))
		for _, b := range p.builds {
			gains[b.op] = b.gain
		}
		placed = interleave.LP(p.skyline, p.g, gains)
	}
	offered := 0
	for id := range p.g.Len() {
		if p.g.Op(dataflow.OpID(id)).Optional {
			offered++
		}
	}
	s.ins.buildOpsPlaced.Add(float64(placed))
	if p.recording {
		s.cfg.Provenance.Append(provenance.Event{
			Kind: provenance.KindInterleaved, Flow: p.id, T: p.now,
			Count: placed, Records: offered, Containers: len(p.skyline),
		})
	}
	span.End()
}

// recordSchedule appends the skyline choice — with the Pareto alternatives
// the tuner passed over, so the choice is auditable against the skyline it
// came from — and one placement event per interleaved build op that made
// the chosen schedule, with its slot coordinates.
func (s *Service) recordSchedule(p *pass) {
	ev := provenance.Event{
		Kind: provenance.KindFlowScheduled, Flow: p.id, T: p.now,
		Makespan:    p.chosen.Makespan(),
		MoneyQuanta: p.chosen.MoneyQuanta(),
		Containers:  p.chosen.Containers(),
	}
	for _, alt := range p.skyline {
		if alt == p.chosen {
			continue
		}
		ev.Alts = append(ev.Alts, provenance.ParetoPoint{
			Makespan:    alt.Makespan(),
			MoneyQuanta: alt.MoneyQuanta(),
			Containers:  alt.Containers(),
		})
	}
	s.cfg.Provenance.Append(ev)
	for _, a := range p.chosen.Assignments() {
		b, ok := p.candidate(a.Op)
		if !ok {
			continue
		}
		s.cfg.Provenance.Append(provenance.Event{
			Kind: provenance.KindBuildPlaced, Flow: p.id, T: p.now,
			Name: b.index, Part: b.pid,
			Op:        p.chosen.Graph.Op(a.Op).Name,
			Container: a.Container, Start: a.Start, End: a.End,
		})
	}
}

// dedicatedMargin is the gain a dedicated build must bring per unit of the
// marginal quantum cost it adds.
const dedicatedMargin = 2

// dedicate is the §7 "delayed manner" extension for workloads whose idle
// slots are too short: builds the interleaver could not fit go onto one
// extra container of the chosen schedule, paid for out of pocket, highest
// gain first, while each build's weighted gain covers dedicatedMargin times
// its marginal leased-quantum cost.
func (s *Service) dedicate(p *pass) {
	if !s.cfg.AllowDedicatedBuilds || !s.cfg.Strategy.gainDriven() {
		return
	}
	pr := s.cfg.Sched.Pricing
	cont := p.chosen.NumSlots()
	end := 0.0
	order := append([]buildCandidate(nil), p.builds...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].gain > order[j].gain })
	for _, b := range order {
		if _, placed := p.chosen.Assignment(b.op); placed {
			continue
		}
		newEnd := end + p.chosen.Graph.Op(b.op).Time
		marginalCost := float64(pr.Quanta(newEnd)-pr.Quanta(end)) * pr.VMPerQuantum
		if marginalCost > 0 && b.gain < dedicatedMargin*marginalCost {
			continue
		}
		if _, err := p.chosen.Append(b.op, cont); err != nil {
			continue
		}
		end = newEnd
	}
}

// execute runs the chosen schedule on the tenant's executor and reports
// whether the run completed (false: ctx was cancelled before or during it).
// The fault plan holds absolute service times; the execution sees the
// window from the decision time on, and its events are stamped back onto
// the service clock.
func (s *Service) execute(ctx context.Context, p *pass) bool {
	// The fleet-reservation critical section: under the QaaS pipeline this
	// books the schedule's containers out of the shared fleet, and the
	// release models their occupancy for the realized makespan.
	var release func(float64)
	if s.cfg.Reserve != nil {
		release = s.cfg.Reserve(p.chosen.Containers())
	}
	span := p.span.StartSpan("sim.execute")
	p.run = s.exec.Execute(ctx, p.chosen, s.cfg.Faults.From(p.now))
	span.End()
	run := &p.run
	if release != nil {
		release(run.Makespan) // zero for a cancelled run
	}
	if run.Cancelled {
		return false
	}
	s.ins.observeRun(p.chosen.Graph, run)
	if p.recording {
		for _, ev := range run.Events {
			ev.Flow, ev.T = p.id, p.now+ev.T
			s.cfg.Provenance.Append(ev)
		}
	}
	if s.cfg.PostExec != nil {
		s.cfg.PostExec(p.chosen, p.run)
	}
	return true
}

// commit books the completed run against the service's tallies and commits
// the index builds that finished inside it to the catalog and storage.
// Builds killed mid-flight stay missing and later passes offer them again.
func (s *Service) commit(p *pass) {
	run, res := &p.run, &p.res
	res.Makespan = run.Makespan
	res.MoneyQuanta = run.MoneyQuanta
	res.TotalOps = p.chosen.Assigned()
	res.FaultsInjected = run.FaultsInjected
	res.FaultsRecovered = run.FaultsRecovered
	res.ReplacedOps = run.ReplacedOps
	res.WastedQuanta = run.WastedQuanta
	s.metrics.VMQuanta += run.MoneyQuanta
	s.metrics.FaultsInjected += run.FaultsInjected
	s.metrics.FaultsRecovered += run.FaultsRecovered
	s.metrics.ReplacedOps += run.ReplacedOps
	s.metrics.WastedQuanta += run.WastedQuanta

	for id, r := range run.Ops {
		if r.Killed {
			res.BuildsKilled++
		}
		b, ok := p.candidate(dataflow.OpID(id))
		if !r.Completed || !ok {
			continue
		}
		st := s.db.Catalog.State(b.index)
		if st == nil {
			continue
		}
		if err := st.MarkBuilt(b.pid); err != nil {
			continue
		}
		res.BuildsCompleted++
		idx := st.Index
		mb := idx.PartitionSizeMB(idx.Table.Partitions[b.pid])
		s.ins.storageTransferred.Add(mb)
		if p.recording {
			s.cfg.Provenance.Append(provenance.Event{
				Kind: provenance.KindBuildCommitted, Flow: p.id, T: p.now,
				Name: b.index, Part: b.pid, SizeMB: mb,
			})
		}
	}
}

// settle advances the clock to this dataflow's completion, accrues storage
// up to it and records the result in the metrics and instruments.
func (s *Service) settle(p *pass) {
	run, res := &p.run, &p.res
	s.clock += run.Makespan
	res.End = s.clock
	mb := s.accrueStorage(s.clock)
	if p.recording {
		s.cfg.Provenance.Append(provenance.Event{
			Kind: provenance.KindMoneySettled, Flow: p.id, T: s.clock,
			Makespan: run.Makespan, MoneyQuanta: run.MoneyQuanta,
			WastedQuanta: run.WastedQuanta, Containers: p.chosen.Containers(),
		})
	}

	s.ins.flowsFinished.Inc()
	s.ins.flowMakespan.Observe(run.Makespan)
	s.ins.flowQuanta.Observe(run.MoneyQuanta)
	s.ins.partitionsBuilt.Add(float64(res.BuildsCompleted))
	s.ins.clockGauge.Set(s.clock)
	available := s.db.Catalog.AvailableCount()
	s.ins.indexesAvail.Set(float64(available))

	s.metrics.Results = append(s.metrics.Results, *res)
	s.metrics.TotalOps += res.TotalOps
	s.metrics.KilledOps += res.BuildsKilled
	s.resultsMakespan += res.Makespan
	s.metrics.Timeline = append(s.metrics.Timeline, TimePoint{
		T:            s.clock,
		IndexesBuilt: available,
		StorageMB:    mb,
		StorageCost:  s.storage.CostAccrued(),
	})
}

// accrueStorage advances the storage meter to now at the catalog's current
// footprint, counts the cost it accrued, sets the footprint gauges and
// returns the footprint in MB.
func (s *Service) accrueStorage(now float64) float64 {
	mb, parts := s.db.Catalog.Footprint()
	s.ins.storageCost.Add(s.storage.Advance(now, mb))
	s.ins.storageMB.Set(mb)
	s.ins.storageFiles.Set(float64(parts))
	return mb
}
