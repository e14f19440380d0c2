// Package core implements the QaaS service of the paper (Fig. 1): dataflows
// are issued sequentially, the online index tuner of Algorithm 1 ranks the
// potential indexes by the gain model, beneficial indexes are built inside
// the idle slots of each dataflow's execution schedule by an interleaving
// algorithm, non-beneficial indexes are deleted, and every execution is
// accounted in time and money against the provider's quantum pricing.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"idxflow/internal/cloud"
	"idxflow/internal/data"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/gain"
	"idxflow/internal/interleave"
	"idxflow/internal/provenance"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// Strategy selects the index-management policy of §6.5.
type Strategy int

// The four strategies compared in Fig. 12 and Fig. 14.
const (
	// NoIndex never builds indexes (baseline).
	NoIndex Strategy = iota
	// RandomIndex builds random indexes from the potential set at random
	// container positions, ignoring gains and never deleting. It lacks
	// the tuner-optimizer integration, so dataflows do not get rewritten
	// to use the indexes it builds: throughput stays at the No-Index
	// level while the storage bill grows (the §6.5 baseline behaviour).
	RandomIndex
	// GainNoDelete builds by the gain model but never deletes.
	GainNoDelete
	// Gain is the full approach: gain-driven builds and deletions.
	Gain
)

var strategyNames = [...]string{"no-index", "random", "gain-no-delete", "gain"}

func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("strategy(%d)", int(s))
	}
	return strategyNames[s]
}

// Interleaving selects the §5.3 interleaving algorithm.
type Interleaving int

// Available interleaving algorithms.
const (
	LPInterleave Interleaving = iota
	OnlineInterleave
)

// Config parameterizes the service.
type Config struct {
	Sched    sched.Options
	Gain     gain.Params
	Strategy Strategy
	Algo     Interleaving
	// MaxBuildOps caps the index-build partition operators offered to the
	// interleaver per dataflow; the gain ranking decides which survive.
	MaxBuildOps int
	// Seed drives the random baseline.
	Seed int64
	// RuntimeError, when non-zero, perturbs actual operator runtimes
	// uniformly within ±RuntimeError (e.g. 0.2 = 20%), for the Fig. 6
	// robustness experiment.
	RuntimeError float64
	// Faults, when non-nil, injects infrastructure faults: each execution
	// receives the plan's events that fall inside its service-time window
	// (container crashes, spot revocations, storage errors, stragglers).
	// Builds killed mid-flight are never committed, so their partitions
	// stay missing and the tuner rebuilds them in later idle slots.
	Faults *fault.Plan
	// Backoff is the retry policy for transient storage errors; the zero
	// value means cloud.DefaultBackoff().
	Backoff cloud.Backoff
	// DeletionGraceQuanta adds hysteresis to Algorithm 1's deletion: a
	// built index is only dropped if, besides having non-positive gains,
	// it has not been used by any dataflow for this many quanta. Zero
	// means delete as soon as the gains allow it. Hysteresis avoids
	// rebuild churn when dataflow service times are long relative to the
	// history window.
	DeletionGraceQuanta float64
	// AllowDedicatedBuilds enables the §7 delayed-building extension:
	// beneficial index partitions that did not fit any idle slot may be
	// built on a dedicated extra container — paying real money — when the
	// weighted gain exceeds the marginal quantum cost by the configured
	// margin (DedicatedMargin, default 2).
	AllowDedicatedBuilds bool
	// DedicatedMargin is the required gain/cost ratio for dedicated
	// builds; values below 1 are raised to 1.
	DedicatedMargin float64
	// AdaptiveFading enables the §7 learned per-index fading controller:
	// indexes deleted and re-requested soon after get a slower fade,
	// indexes idling long past their controller a faster one.
	AdaptiveFading bool
	// UpdateEveryQuanta, when positive, applies a batch data update every
	// that many quanta (§3: "Data updates are performed in batches
	// periodically"): UpdateFraction of all partitions get a new version,
	// invalidating the index partitions built on them.
	UpdateEveryQuanta float64
	// UpdateFraction is the fraction of partitions touched per batch
	// update; zero means 1%.
	UpdateFraction float64
	// Telemetry receives the service's metrics and is threaded through
	// the scheduler, interleaver, executor and storage layers. Nil means
	// the package-level telemetry.Default() registry; inject a fresh
	// registry to keep tests isolated.
	Telemetry *telemetry.Registry
	// Tracer records nested spans (submit → rank → schedule → execute).
	// Nil means telemetry.DefaultTracer(), which is disabled until a
	// -trace flag enables it, so tracing costs one nil check per span.
	Tracer *telemetry.Tracer
	// Provenance is the decision flight recorder: every consequential
	// tuner decision (admission, skyline choice, index adoption/eviction,
	// build placement/commit/kill, fault, settlement) is appended as a
	// typed event attributed to the submitting flow. Nil means
	// provenance.Default(), which is disabled until a -events flag enables
	// it, so recording costs one atomic load per decision site.
	Provenance *provenance.Recorder
	// Reserve, when non-nil, is called with the chosen schedule's container
	// count just before execution and must return a release function that
	// the service invokes with the realized makespan (seconds) once the
	// execution finishes (0 for a cancelled one). The QaaS pipeline uses it
	// to book slots out of the shared container fleet — the only critical
	// section concurrent admissions serialize on — and to model real-time
	// container occupancy.
	Reserve func(containers int) func(makespanSeconds float64)
	// PostExec, when non-nil, observes every completed execution together
	// with the schedule it replayed, before build commits and settlement.
	// The QaaS audit path hooks internal/check.Audit here to verify the §3
	// quantum/lease/money invariants on each interleaved admission. Must be
	// safe for concurrent use when the service is driven from a worker
	// pool.
	PostExec func(chosen *sched.Schedule, run sim.Result)
}

// DefaultConfig returns the Table 3 configuration with the Gain strategy
// and LP interleaving. The fading controller D and history window W are
// scaled from Table 3's values to our realized service times: the paper's
// dataflows complete in roughly an arrival gap, while ours take several
// quanta, so D = 1 would erase history between consecutive executions of
// the same phase (see EXPERIMENTS.md).
func DefaultConfig() Config {
	g := gain.DefaultParams()
	g.FadeD = 10
	g.WindowW = 120
	return Config{
		Sched:               sched.DefaultOptions(),
		Gain:                g,
		Strategy:            Gain,
		Algo:                LPInterleave,
		MaxBuildOps:         64,
		Seed:                1,
		DeletionGraceQuanta: 240,
	}
}

// FlowResult is the outcome of one dataflow execution.
type FlowResult struct {
	// Name is the dataflow's name. The result holds the name and not the
	// *dataflow.Flow so that Metrics.Results does not keep every parsed
	// graph alive.
	Name string
	// FlowID is the provenance identifier assigned at submission (1, 2,
	// ... in submission order); every flight-recorder event this
	// execution produced carries it.
	FlowID provenance.FlowID
	// Start and End are service times in seconds; Start is the later of
	// the arrival time and the previous dataflow's completion (dataflows
	// are issued and executed sequentially, §3).
	Start, End float64
	// Makespan is the realized execution time in seconds.
	Makespan float64
	// MoneyQuanta is the realized VM cost in quanta.
	MoneyQuanta float64
	// IndexesUsed lists the available indexes that accelerated this flow.
	IndexesUsed []string
	// BuildsCompleted and BuildsKilled count index-build partition ops.
	BuildsCompleted, BuildsKilled int
	// Deleted lists indexes dropped after this flow.
	Deleted []string
	// TotalOps counts every operator handed to the executor.
	TotalOps int
	// FaultsInjected and FaultsRecovered count fault events that took
	// effect during this execution and the effects absorbed (re-placed
	// operators, retried transfers, ridden-out stragglers).
	FaultsInjected, FaultsRecovered int
	// ReplacedOps counts dataflow operators re-placed onto surviving
	// containers after a container failure.
	ReplacedOps int
	// WastedQuanta is paid compute discarded by faults, in quanta.
	WastedQuanta float64
	// Cancelled reports that the submission's context was cancelled before
	// the execution finished: nothing was committed, charged or recorded —
	// the flow never ran as far as the books are concerned.
	Cancelled bool
}

// TimePoint samples the index set over time for Fig. 13.
type TimePoint struct {
	T            float64 // seconds
	IndexesBuilt int     // indexes with >= 1 built partition
	StorageMB    float64
	StorageCost  float64 // cumulative $
}

// Metrics aggregates a full run.
type Metrics struct {
	FlowsFinished  int
	FlowsSubmitted int
	TotalOps       int
	KilledOps      int
	VMQuanta       float64
	VMCost         float64
	StorageCost    float64
	// MeanMakespan is the average realized dataflow execution time in
	// seconds over finished flows.
	MeanMakespan float64
	// CostPerFlow is (VM + storage cost) / finished flows.
	CostPerFlow float64
	// FaultsInjected, FaultsRecovered, ReplacedOps and WastedQuanta
	// aggregate the fault subsystem's effects across the run: every
	// injected fault is either recovered or shows up in WastedQuanta.
	FaultsInjected, FaultsRecovered, ReplacedOps int
	WastedQuanta                                 float64
	Timeline                                     []TimePoint
	Results                                      []FlowResult
}

// Service is the QaaS service instance.
type Service struct {
	cfg     Config
	db      *workload.FileDB
	eval    *gain.Evaluator
	storage *cloud.Storage
	rng     *rand.Rand
	clock   float64
	vmQ     float64
	metrics Metrics
	// resultsMakespan sums Makespan over metrics.Results as they are
	// appended; Aggregates derives its MeanMakespan from it.
	resultsMakespan float64
	// makespanSum accumulates the makespans of flows Run saw finish inside
	// its horizon; Run derives Metrics.MeanMakespan from it so repeated Run
	// calls stay idempotent.
	makespanSum float64
	tel         *telemetry.Registry
	tracer      *telemetry.Tracer
	prov        *provenance.Recorder
	ins         serviceInstruments
	// nextFlow assigns provenance FlowIDs in submission order; curFlow is
	// the flow currently inside Submit, so helpers triggered by it
	// (deletion, batch updates) attribute their events correctly.
	nextFlow provenance.FlowID
	curFlow  provenance.FlowID
	// lastUsed records, per index, the last service time a dataflow
	// listed it as potentially useful — the hysteresis input.
	lastUsed map[string]float64
	// lastUpdate is the service time of the last applied batch update.
	lastUpdate float64
	// InvalidatedPartitions counts index partitions lost to batch updates.
	InvalidatedPartitions int
	// fader is the learned per-index fading controller (nil unless
	// Config.AdaptiveFading).
	fader *gain.AdaptiveFader
	// warm carries the scheduler's cross-submission state: the last
	// frontier and the idle-slot sizing hint.
	warm *sched.Warm
}

// NewService returns a service over the given file database.
func NewService(cfg Config, db *workload.FileDB) *Service {
	if cfg.MaxBuildOps <= 0 {
		cfg.MaxBuildOps = 64
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.DefaultTracer()
	}
	if cfg.Provenance == nil {
		cfg.Provenance = provenance.Default()
	}
	// Thread the observability handles through the scheduling layers; the
	// executor and storage get them below.
	cfg.Sched.Metrics = cfg.Telemetry
	cfg.Sched.Tracer = cfg.Tracer
	cfg.Sched.Provenance = cfg.Provenance
	s := &Service{
		cfg:      cfg,
		db:       db,
		eval:     gain.NewEvaluator(cfg.Gain),
		storage:  cloud.NewStorage(cfg.Sched.Pricing),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		lastUsed: make(map[string]float64),
		tel:      cfg.Telemetry,
		tracer:   cfg.Tracer,
		prov:     cfg.Provenance,
	}
	s.ins = newServiceInstruments(s.tel)
	s.warm = sched.NewWarm(s.tel)
	s.cfg.Sched.Warm = s.warm
	s.storage.Instrument(s.tel)
	s.eval.Metrics = s.tel
	s.eval.Provenance = s.prov
	// Bind the executor's instrument bundle once up front so the per-query
	// Submit path hits the registry memo instead of re-resolving handles.
	sim.PreregisterMetrics(s.tel)
	if cfg.AdaptiveFading {
		s.fader = gain.NewAdaptiveFader(cfg.Gain.FadeD)
		s.eval.FadeOverride = s.fader.FadeFor
	}
	return s
}

// Telemetry returns the metrics registry the service reports into.
func (s *Service) Telemetry() *telemetry.Registry { return s.tel }

// Tracer returns the tracer the service records spans into.
func (s *Service) Tracer() *telemetry.Tracer { return s.tracer }

// Provenance returns the decision flight recorder the service appends to.
func (s *Service) Provenance() *provenance.Recorder { return s.prov }

// Catalog exposes the underlying catalog (index states).
func (s *Service) Catalog() *data.Catalog { return s.db.Catalog }

// Clock returns the service time in seconds.
func (s *Service) Clock() float64 { return s.clock }

// WarmStats snapshots the scheduler's warm-start counters.
func (s *Service) WarmStats() sched.WarmStats { return s.warm.Stats() }

// effectiveSpeedups scales each usable index's speedups by the indexed
// fraction of the partitions the flow actually touches (§3: "each operator
// can make use of those [indexes] associated to partitions it accesses"):
// with fraction f of the touched data indexed, the accelerated part runs at
// time/s and the rest at full speed, so s_eff = 1 / (f/s + (1-f)).
// The flow is not mutated; a scaled copy of its index uses is returned.
func (s *Service) effectiveSpeedups(flow *dataflow.Flow) (map[string]bool, []string, []dataflow.IndexUse) {
	avail := make(map[string]bool)
	var used []string
	touched := make(map[string]bool, len(flow.Inputs))
	for _, p := range flow.Inputs {
		touched[p] = true
	}
	scaled := make([]dataflow.IndexUse, 0, len(flow.Indexes))
	for _, iu := range flow.Indexes {
		st := s.db.Catalog.State(iu.Index)
		if st == nil || st.BuiltCount() == 0 {
			scaled = append(scaled, iu)
			continue
		}
		f := s.touchedFraction(st, touched)
		if f <= 0 {
			scaled = append(scaled, iu)
			continue
		}
		cp := dataflow.IndexUse{Index: iu.Index, Speedup: make(map[dataflow.OpID]float64, len(iu.Speedup))}
		for id, sp := range iu.Speedup {
			cp.Speedup[id] = 1 / (f/sp + (1 - f))
		}
		scaled = append(scaled, cp)
		// The catalog's own spelling, not iu.Index: that one is a substring
		// of the submitted body, which FlowResult.IndexesUsed would pin.
		name := st.Index.Name()
		avail[name] = true
		used = append(used, name)
	}
	sort.Strings(used)
	return avail, used, scaled
}

// touchedFraction returns the fraction of the flow's touched partitions of
// the index's table whose index partition is built. It returns 0 when the
// flow touches none of the table.
func (s *Service) touchedFraction(st *data.BuildState, touched map[string]bool) float64 {
	total, built := 0, 0
	for _, p := range st.Index.Table.Partitions {
		if !touched[p.Path] {
			continue
		}
		total++
		if st.Part(p.ID).Built {
			built++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(built) / float64(total)
}

// indexReadQuanta returns the cost in quanta of reading the index
// partitions the flow touches from the storage service.
func (s *Service) indexReadQuanta(flow *dataflow.Flow, idx *data.Index) float64 {
	touched := make(map[string]bool)
	for _, p := range flow.Inputs {
		touched[p] = true
	}
	var mb float64
	for _, p := range idx.Table.Partitions {
		if touched[p.Path] {
			mb += idx.PartitionSizeMB(p)
		}
	}
	return s.cfg.Sched.Spec.TransferSeconds(mb) / s.cfg.Sched.Pricing.QuantumSeconds
}

// recordGains appends this flow's per-index gains to the history (the Hd
// update of Algorithm 1): gtd is the serial operator time the index would
// save and gmd the equivalent money minus the cost of reading the index.
// Records are stamped with the execution time (the service clock), not the
// arrival time: per §4, δT is "0 for the ones that are currently running or
// queued", so a dataflow's influence starts when it actually runs.
func (s *Service) recordGains(flow *dataflow.Flow) {
	q := s.cfg.Sched.Pricing.QuantumSeconds
	for _, iu := range flow.Indexes {
		idx := s.db.IndexByName(iu.Index)
		if idx == nil {
			continue
		}
		s.lastUsed[iu.Index] = s.clock
		if s.fader != nil {
			s.fader.ObserveRequested(iu.Index, s.clock/q)
		}
		gtd := flow.TimeSavedBy(iu.Index) / q
		gmd := gtd - s.indexReadQuanta(flow, idx)
		if gmd < 0 {
			gmd = 0
		}
		if gtd > 0 {
			s.ins.realGain.Observe(gtd)
		}
		s.eval.Record(iu.Index, gain.Record{When: s.clock, TimeGain: gtd, MoneyGain: gmd})
	}
}

// costsOf returns the gain.Costs of an index at the current state:
// remaining build time over missing partitions and the full storage
// footprint.
func (s *Service) costsOf(name string) (gain.Costs, *data.BuildState) {
	st := s.db.Catalog.State(name)
	if st == nil {
		return gain.Costs{}, nil
	}
	idx := st.Index
	spec := s.cfg.Sched.Spec
	q := s.cfg.Sched.Pricing.QuantumSeconds
	var buildSec float64
	for _, pid := range st.MissingPartitions() {
		buildSec += idx.BuildSeconds(idx.Table.Partitions[pid], spec)
	}
	bq := buildSec / q
	return gain.Costs{
		Name:             name,
		BuildQuanta:      bq,
		BuildMoneyQuanta: bq,
		SizeMB:           idx.SizeMB(),
	}, st
}

// candidateNames returns every index that has gain history or built
// partitions, sorted.
func (s *Service) candidateNames() []string {
	names := s.db.Catalog.IndexNames() // sorted, distinct, the caller's own
	keep := names[:0]
	for _, name := range names {
		if s.db.Catalog.State(name).BuiltCount() > 0 || len(s.eval.History.Records(name)) > 0 {
			keep = append(keep, name)
		}
	}
	return keep
}

// buildCandidate is one index-build partition operator offered to the
// interleaver.
type buildCandidate struct {
	index string
	pid   int
	op    dataflow.OpID
	gain  float64
}

// addBuildOps appends optional build-index operators for the top-ranked
// beneficial indexes' missing partitions to g and returns them. Partitions
// the current flow touches come first: their index partitions pay off
// immediately when the same inputs are read again.
func (s *Service) addBuildOps(g *dataflow.Graph, ranked []gain.Ranked, touched map[string]bool) []buildCandidate {
	var out []buildCandidate
	spec := s.cfg.Sched.Spec
	for _, r := range ranked {
		st := s.db.Catalog.State(r.Costs.Name)
		if st == nil {
			continue
		}
		missing := st.MissingPartitions()
		if len(missing) == 0 {
			continue
		}
		sort.SliceStable(missing, func(a, b int) bool {
			ta := touched[st.Index.Table.Partitions[missing[a]].Path]
			tb := touched[st.Index.Table.Partitions[missing[b]].Path]
			return ta && !tb
		})
		perPart := r.Gain / float64(len(missing))
		for _, pid := range missing {
			if len(out) >= s.cfg.MaxBuildOps {
				return out
			}
			p := st.Index.Table.Partitions[pid]
			id := g.Add(dataflow.Operator{
				Name:        "build:" + st.Index.PartitionPath(pid),
				Kind:        dataflow.KindBuildIndex,
				CPU:         1,
				Memory:      0.25,
				Time:        st.Index.BuildSeconds(p, spec),
				Priority:    -1,
				Optional:    true,
				BuildsIndex: st.Index.PartitionPath(pid),
			})
			out = append(out, buildCandidate{index: r.Costs.Name, pid: pid, op: id, gain: perPart})
		}
	}
	return out
}

// interleaver returns the configured interleaving algorithm.
func (s *Service) interleaver() interleave.Interleaver {
	sk := sched.NewSkyline(s.cfg.Sched)
	switch {
	case s.cfg.Strategy == RandomIndex:
		return &interleave.Random{Scheduler: sk, Rng: s.rng}
	case s.cfg.Algo == OnlineInterleave:
		return &interleave.Online{Scheduler: sk}
	default:
		return &interleave.LP{Scheduler: sk}
	}
}

// applyBatchUpdates performs any batch data updates due by the current
// clock: a fraction of all partitions get a new version, and index
// partitions built on them are invalidated and freed from storage (§3).
func (s *Service) applyBatchUpdates() {
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
			for _, p := range f.Table.Partitions {
				if s.rng.Float64() >= frac {
					continue
				}
				freed, err := s.db.Catalog.ApplyUpdate(f.Table.Name, p.ID)
				if err != nil {
					continue
				}
				for _, path := range freed {
					s.storage.Delete(path)
					s.InvalidatedPartitions++
					s.ins.invalidated.Inc()
					invalidated++
				}
			}
		}
		if invalidated > 0 && s.prov.Active() {
			s.prov.Append(provenance.Event{
				Kind: provenance.KindIndexInvalidated, Flow: s.curFlow,
				T: s.lastUpdate, Name: "batch-update", Count: invalidated,
			})
		}
	}
}

// Submit processes one dataflow through Algorithm 1 and executes it.
func (s *Service) Submit(flow *dataflow.Flow) FlowResult {
	return s.SubmitCtx(context.Background(), flow)
}

// SubmitCtx is Submit with cancellation: when ctx is cancelled before or
// during the execution, the returned result has Cancelled set and the
// execution is abandoned — no quanta are charged, no builds commit, no
// settlement is recorded and the realized makespan never advances the
// clock. Decision-time bookkeeping that precedes the execution stands:
// the IssuedAt clock catch-up, batch updates due at that clock, the
// gain-history append, deletions due at this decision time, and the
// admission/scheduling provenance events (FlowAdmitted, FlowScheduled,
// BuildPlaced) already recorded for the flow — those are Algorithm 1
// decisions, not effects of the cancelled run, so a cancelled flow can
// leave events in the log without appearing in any result set. A nil ctx
// means context.Background().
func (s *Service) SubmitCtx(ctx context.Context, flow *dataflow.Flow) FlowResult {
	if ctx != nil && ctx.Err() != nil {
		return FlowResult{Name: flow.Name, Cancelled: true}
	}
	s.nextFlow++
	id := s.nextFlow
	s.curFlow = id
	defer func() { s.curFlow = 0 }()
	span := s.tracer.StartSpan("service.submit").
		SetAttr("flow", flow.Name).
		SetAttr("flow_id", uint64(id))
	defer span.End()
	s.ins.flowsSubmitted.Inc()
	if flow.IssuedAt > s.clock {
		s.clock = flow.IssuedAt
	}
	recording := s.prov.Active()
	if recording {
		s.prov.Append(provenance.Event{
			Kind: provenance.KindFlowAdmitted, Flow: id, T: s.clock,
			Name: flow.Name, Count: len(flow.Graph.Ops()),
		})
	}
	s.applyBatchUpdates()
	res := FlowResult{Name: flow.Name, FlowID: id, Start: s.clock}

	// Update runtimes with the available indexes (line 1-5 of Alg. 2).
	// Only the gain-driven strategies rewrite operators to use indexes:
	// exploiting an index requires the tuner's integration with the
	// optimizer, which the random baseline lacks — it creates indexes
	// blindly and pays for them without the workload benefiting, which is
	// exactly the §6.5 observation that random "does not greatly affect
	// the number of finished dataflows" while its storage cost grows.
	avail, used := map[string]bool{}, []string(nil)
	scaledUses := flow.Indexes
	if s.cfg.Strategy == Gain || s.cfg.Strategy == GainNoDelete {
		avail, used, scaledUses = s.effectiveSpeedups(flow)
	}
	res.IndexesUsed = used
	scaledFlow := &dataflow.Flow{
		Name: flow.Name, Graph: flow.Graph, Inputs: flow.Inputs,
		Indexes: scaledUses, IssuedAt: flow.IssuedAt,
	}
	g := scaledFlow.ApplyIndexes(avail, func(name string) float64 {
		idx := s.db.IndexByName(name)
		if idx == nil {
			return 0
		}
		// Reading one index partition from storage before the operator.
		if n := len(idx.Table.Partitions); n > 0 {
			return s.cfg.Sched.Spec.TransferSeconds(idx.SizeMB() / float64(n))
		}
		return 0
	})

	// Gain bookkeeping and ranking (lines 2-9 of Alg. 1).
	s.eval.Flow = id
	var builds []buildCandidate
	if s.cfg.Strategy == Gain || s.cfg.Strategy == GainNoDelete {
		s.recordGains(flow)
		var candidates []gain.Costs
		for _, name := range s.candidateNames() {
			c, st := s.costsOf(name)
			if st != nil {
				candidates = append(candidates, c)
			}
		}
		rankSpan := s.tracer.StartSpan("service.rank").SetAttr("candidates", len(candidates))
		ranked := s.eval.Rank(candidates, s.clock)
		rankSpan.SetAttr("beneficial", len(ranked))
		rankSpan.End()
		touched := make(map[string]bool, len(flow.Inputs))
		for _, p := range flow.Inputs {
			touched[p] = true
		}
		builds = s.addBuildOps(g, ranked, touched)
		// Deletion (lines 13-19 of Alg. 1) happens at the same trigger
		// time as the ranking: available indexes whose time AND money
		// gains are non-positive are dropped.
		if s.cfg.Strategy == Gain {
			res.Deleted = s.deleteNonBeneficial()
			s.ins.indexesDeleted.Add(float64(len(res.Deleted)))
		}
	} else if s.cfg.Strategy == RandomIndex {
		builds = s.randomBuildOps(g)
	}
	s.ins.buildOpsOffered.Add(float64(len(builds)))
	for _, b := range builds {
		s.ins.estGain.Observe(b.gain)
	}

	gains := make(map[dataflow.OpID]float64, len(builds))
	for _, b := range builds {
		gains[b.op] = b.gain
	}

	// Schedule (lines 10-11): interleave and pick the fastest schedule.
	// The scheduler options carry the flow attribution so interleave and
	// skyline events land on this dataflow.
	s.cfg.Sched.FlowID = id
	s.cfg.Sched.Now = s.clock
	skyline := s.interleaver().Interleave(g, gains)
	chosen := sched.Fastest(skyline)
	if chosen == nil {
		return res
	}
	if recording {
		ev := provenance.Event{
			Kind: provenance.KindFlowScheduled, Flow: id, T: s.clock,
			Makespan:    chosen.Makespan(),
			MoneyQuanta: chosen.MoneyQuanta(),
			Containers:  chosen.Containers(),
		}
		// The Pareto alternatives the tuner passed over, so the choice is
		// auditable against the skyline it came from.
		for _, alt := range skyline {
			if alt == chosen {
				continue
			}
			ev.Alts = append(ev.Alts, provenance.ParetoPoint{
				Makespan:    alt.Makespan(),
				MoneyQuanta: alt.MoneyQuanta(),
				Containers:  alt.Containers(),
			})
		}
		s.prov.Append(ev)
		// One placement event per interleaved build op that made the chosen
		// schedule, with its slot coordinates.
		byOpCand := make(map[dataflow.OpID]buildCandidate, len(builds))
		for _, b := range builds {
			byOpCand[b.op] = b
		}
		for _, a := range chosen.Assignments() {
			b, ok := byOpCand[a.Op]
			if !ok {
				continue
			}
			s.prov.Append(provenance.Event{
				Kind: provenance.KindBuildPlaced, Flow: id, T: s.clock,
				Name: b.index, Part: b.pid,
				Op:        chosen.Graph.Op(a.Op).Name,
				Container: a.Container, Start: a.Start, End: a.End,
			})
		}
	}

	// Idle-slot accounting over the chosen schedule, before dedicated-build
	// containers are appended: interleaved builds occupy slack the flow's
	// operators left behind, and the remaining fragmentation is idle time
	// discovered but not fillable.
	var interleavedSecs float64
	for _, a := range chosen.Assignments() {
		if chosen.Graph.Op(a.Op).Optional {
			interleavedSecs += a.End - a.Start
		}
	}
	s.ins.idleUsed.Add(interleavedSecs)
	s.ins.idleDiscovered.Add(chosen.Fragmentation() + interleavedSecs)

	// Delayed building (§7 extension): unplaced beneficial builds whose
	// gain clearly exceeds the marginal quantum cost go to a dedicated
	// extra container, paid for out of pocket.
	if s.cfg.AllowDedicatedBuilds && (s.cfg.Strategy == Gain || s.cfg.Strategy == GainNoDelete) {
		s.scheduleDedicatedBuilds(chosen, builds)
	}

	// Execute with the configured runtime-error and fault injection. The
	// fault plan holds absolute service times; the execution sees the
	// window starting at the current clock, shifted to relative seconds.
	cfg := sim.Config{
		Pricing: s.cfg.Sched.Pricing, Spec: s.cfg.Sched.Spec,
		Faults: s.cfg.Faults.From(s.clock), Backoff: s.cfg.Backoff,
		Metrics: s.tel, Tracer: s.tracer,
		Provenance: s.prov, FlowID: id, ProvenanceT0: s.clock,
		Ctx: ctx,
	}
	if s.cfg.RuntimeError > 0 {
		e := s.cfg.RuntimeError
		rng := s.rng
		cfg.Actual = func(op *dataflow.Operator) float64 {
			return op.Time * (1 + (rng.Float64()*2-1)*e)
		}
	}
	// The fleet-reservation critical section: under the QaaS pipeline this
	// books the schedule's containers out of the shared fleet, and the
	// release models their occupancy for the realized makespan.
	var release func(float64)
	if s.cfg.Reserve != nil {
		release = s.cfg.Reserve(chosen.Containers())
	}
	run := sim.Execute(chosen, cfg)
	if run.Cancelled {
		if release != nil {
			release(0)
		}
		res.Cancelled = true
		return res
	}
	if release != nil {
		release(run.Makespan)
	}
	if s.cfg.PostExec != nil {
		s.cfg.PostExec(chosen, run)
	}
	res.Makespan = run.Makespan
	res.MoneyQuanta = run.MoneyQuanta
	res.BuildsKilled = run.Killed
	res.TotalOps = chosen.Assigned()
	res.FaultsInjected = run.FaultsInjected
	res.FaultsRecovered = run.FaultsRecovered
	res.ReplacedOps = run.ReplacedOps
	res.WastedQuanta = run.WastedQuanta
	s.vmQ += run.MoneyQuanta
	s.metrics.FaultsInjected += run.FaultsInjected
	s.metrics.FaultsRecovered += run.FaultsRecovered
	s.metrics.ReplacedOps += run.ReplacedOps
	s.metrics.WastedQuanta += run.WastedQuanta

	// Warm-start bookkeeping: the adopted (post-repair) schedule sizes
	// the next run's idle-slot buffers.
	s.warm.NoteAdoption(chosen)

	// Commit completed index builds to the catalog and storage.
	byOp := make(map[dataflow.OpID]buildCandidate, len(builds))
	for _, b := range builds {
		byOp[b.op] = b
	}
	for _, opID := range run.CompletedBuilds {
		b, ok := byOp[opID]
		if !ok {
			continue
		}
		st := s.db.Catalog.State(b.index)
		if st == nil {
			continue
		}
		if err := st.MarkBuilt(b.pid, s.clock); err != nil {
			continue
		}
		res.BuildsCompleted++
		idx := st.Index
		mb := idx.PartitionSizeMB(idx.Table.Partitions[b.pid])
		s.storage.Put(idx.PartitionPath(b.pid), mb)
		if recording {
			s.prov.Append(provenance.Event{
				Kind: provenance.KindBuildCommitted, Flow: id, T: s.clock,
				Name: b.index, Part: b.pid, SizeMB: mb,
			})
		}
	}

	// Advance the clock to this dataflow's completion and accrue storage.
	s.clock += run.Makespan
	res.End = s.clock
	s.storage.Advance(s.clock)
	if recording {
		s.prov.Append(provenance.Event{
			Kind: provenance.KindMoneySettled, Flow: id, T: s.clock,
			Makespan: run.Makespan, MoneyQuanta: run.MoneyQuanta,
			WastedQuanta: run.WastedQuanta, Containers: chosen.Containers(),
		})
	}

	s.ins.flowsFinished.Inc()
	s.ins.flowMakespan.Observe(run.Makespan)
	s.ins.flowQuanta.Observe(run.MoneyQuanta)
	s.ins.partitionsBuilt.Add(float64(res.BuildsCompleted))
	s.ins.clockGauge.Set(s.clock)
	available := len(s.db.Catalog.AvailableSet())
	s.ins.indexesAvail.Set(float64(available))
	span.SetAttr("makespan_seconds", run.Makespan).
		SetAttr("money_quanta", run.MoneyQuanta).
		SetAttr("builds_completed", res.BuildsCompleted).
		SetAttr("builds_killed", res.BuildsKilled)
	if run.FaultsInjected > 0 {
		span.SetAttr("faults_injected", run.FaultsInjected).
			SetAttr("faults_recovered", run.FaultsRecovered).
			SetAttr("ops_replaced", run.ReplacedOps).
			SetAttr("wasted_quanta", run.WastedQuanta)
	}

	s.metrics.Results = append(s.metrics.Results, res)
	s.metrics.TotalOps += res.TotalOps
	s.metrics.KilledOps += res.BuildsKilled
	s.resultsMakespan += res.Makespan
	s.metrics.Timeline = append(s.metrics.Timeline, TimePoint{
		T:            s.clock,
		IndexesBuilt: available,
		StorageMB:    s.storage.TotalMB(),
		StorageCost:  s.storage.CostAccrued(),
	})
	return res
}

// scheduleDedicatedBuilds appends build candidates that the interleaver
// could not fit into idle slots onto one dedicated extra container of the
// schedule, as long as each build's weighted gain exceeds its marginal
// leased-quantum cost by the configured margin. This implements the §7
// "delayed manner" direction for workloads whose idle slots are too short.
func (s *Service) scheduleDedicatedBuilds(chosen *sched.Schedule, builds []buildCandidate) {
	margin := s.cfg.DedicatedMargin
	if margin < 1 {
		margin = 1
	}
	pr := s.cfg.Sched.Pricing
	cont := chosen.NumSlots()
	end := 0.0
	// Highest-gain builds first.
	order := append([]buildCandidate(nil), builds...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].gain > order[j].gain })
	for _, b := range order {
		if _, placed := chosen.Assignment(b.op); placed {
			continue
		}
		op := chosen.Graph.Op(b.op)
		newEnd := end + op.Time
		marginalCost := float64(pr.Quanta(newEnd)-pr.Quanta(end)) * pr.VMPerQuantum
		if marginalCost > 0 && b.gain < margin*marginalCost {
			continue
		}
		if _, err := chosen.Append(b.op, cont, -1); err != nil {
			continue
		}
		end = newEnd
	}
}

// deleteNonBeneficial drops every available index whose time and money
// gains are both non-positive at the current decision time — and, when
// DeletionGraceQuanta is set, that no dataflow has listed as useful within
// the grace period — freeing its storage. A built index pays no further
// build cost when judging whether to keep it.
func (s *Service) deleteNonBeneficial() []string {
	grace := s.cfg.DeletionGraceQuanta * s.cfg.Sched.Pricing.QuantumSeconds
	var candidates []gain.Costs
	for _, name := range s.db.Catalog.IndexNames() {
		if !s.db.Catalog.Available(name) {
			continue
		}
		if grace > 0 && s.clock-s.lastUsed[name] < grace {
			continue
		}
		c, _ := s.costsOf(name)
		c.BuildQuanta, c.BuildMoneyQuanta = 0, 0
		candidates = append(candidates, c)
	}
	var deleted []string
	q := s.cfg.Sched.Pricing.QuantumSeconds
	recording := s.prov.Active()
	var byName map[string]gain.Costs
	if recording {
		byName = make(map[string]gain.Costs, len(candidates))
		for _, c := range candidates {
			byName[c.Name] = c
		}
	}
	for _, name := range s.eval.NonBeneficial(candidates, s.clock) {
		if recording {
			// Recompute the non-positive gains that justified the drop so
			// the event carries the Eq. 4/5 evidence.
			c := byName[name]
			s.prov.Append(provenance.Event{
				Kind: provenance.KindIndexEvicted, Flow: s.curFlow, T: s.clock,
				Name:     name,
				TimeGain: s.eval.TimeGain(c, s.clock), MoneyGain: s.eval.MoneyGain(c, s.clock),
				SizeMB: c.SizeMB,
				FadeD:  s.cfg.Gain.FadeD, WindowW: s.cfg.Gain.WindowW,
				Records: len(s.eval.History.Records(name)),
			})
		}
		for _, path := range s.db.Catalog.Drop(name) {
			s.storage.Delete(path)
		}
		deleted = append(deleted, name)
		if s.fader != nil {
			s.fader.ObserveDeleted(name, s.clock/q)
		}
	}
	if s.fader != nil {
		// Kept-but-idle indexes suggest the fade is too slow.
		for _, c := range candidates {
			if idle := (s.clock - s.lastUsed[c.Name]) / q; idle > 0 {
				s.fader.ObserveIdle(c.Name, idle)
			}
		}
	}
	return deleted
}

// randomBuildOps implements the random baseline's candidate set (§6): a
// random selection from the entire potential set — not the current flow's
// indexes — so the built indexes rarely match what future dataflows need:
// throughput barely improves while the storage bill grows.
func (s *Service) randomBuildOps(g *dataflow.Graph) []buildCandidate {
	names := s.db.Catalog.IndexNames()
	if len(names) == 0 {
		return nil
	}
	var out []buildCandidate
	spec := s.cfg.Sched.Spec
	// The baseline attempts an eighth of the Gain strategy's build budget:
	// its picks are blind, and appended builds mostly die at quantum
	// expiry anyway.
	budget := s.cfg.MaxBuildOps / 8
	if budget < 1 {
		budget = 1
	}
	for attempts := 0; len(out) < budget && attempts < 4*budget; attempts++ {
		st := s.db.Catalog.State(names[s.rng.Intn(len(names))])
		if st == nil {
			continue
		}
		missing := st.MissingPartitions()
		if len(missing) == 0 {
			continue
		}
		pid := missing[s.rng.Intn(len(missing))]
		p := st.Index.Table.Partitions[pid]
		path := st.Index.PartitionPath(pid)
		dup := false
		for _, b := range out {
			if b.index == st.Index.Name() && b.pid == pid {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		id := g.Add(dataflow.Operator{
			Name:        "build:" + path,
			Kind:        dataflow.KindBuildIndex,
			CPU:         1,
			Memory:      0.25,
			Time:        st.Index.BuildSeconds(p, spec),
			Priority:    -1,
			Optional:    true,
			BuildsIndex: path,
		})
		out = append(out, buildCandidate{index: st.Index.Name(), pid: pid, op: id, gain: 1})
	}
	return out
}

// Run submits every flow whose execution can finish within the horizon (in
// seconds) and returns the aggregated metrics. Flows still queued or
// running at the horizon are not counted as finished (§6.5: "the number of
// dataflows finished after 720 time quanta"). Run may be called repeatedly
// to feed the service in batches: the raw tallies accumulate in the
// service, and every derived value (MeanMakespan, VMCost, CostPerFlow) is
// recomputed from them on each call, so the returned aggregates are
// identical whether the flows arrived in one call or several.
func (s *Service) Run(flows []*dataflow.Flow, horizon float64) Metrics {
	return s.RunCtx(context.Background(), flows, horizon)
}

// RunCtx is Run with cancellation: the context is checked between flows and
// threaded into each submission, so a cancelled batch stops cleanly at a
// flow boundary (or mid-execution via SubmitCtx) instead of running to the
// horizon. A cancelled submission is not counted as submitted or finished.
// The aggregates derived for the flows that did complete are identical to
// an uncancelled Run over that prefix.
func (s *Service) RunCtx(ctx context.Context, flows []*dataflow.Flow, horizon float64) Metrics {
	for _, f := range flows {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		if s.clock >= horizon {
			break
		}
		res := s.SubmitCtx(ctx, f)
		if res.Cancelled {
			break
		}
		s.metrics.FlowsSubmitted++
		if res.End <= horizon {
			s.metrics.FlowsFinished++
			s.makespanSum += res.Makespan
		}
	}
	s.storage.Advance(horizon)
	m := s.metrics
	if m.FlowsFinished > 0 {
		m.MeanMakespan = s.makespanSum / float64(m.FlowsFinished)
	}
	m.VMQuanta = s.vmQ
	m.VMCost = s.vmQ * s.cfg.Sched.Pricing.VMPerQuantum
	m.StorageCost = s.storage.CostAccrued()
	if m.FlowsFinished > 0 {
		m.CostPerFlow = (m.VMCost + m.StorageCost) / float64(m.FlowsFinished)
	}
	return m
}

// Aggregates derives the run-level Metrics for callers that drive the
// service through Submit/SubmitCtx directly (e.g. the QaaS worker pool)
// instead of Run. Every completed submission appended a FlowResult to
// Metrics.Results and added to the running tallies there, so this reads
// them without walking the results: each flow counts as submitted and
// finished, and the derived values (MeanMakespan, VMCost, CostPerFlow)
// follow exactly as in Run. The caller must serialize this with concurrent
// submissions to the same service.
func (s *Service) Aggregates() Metrics {
	m := s.metrics
	m.FlowsSubmitted = len(m.Results)
	m.FlowsFinished = len(m.Results)
	if m.FlowsFinished > 0 {
		m.MeanMakespan = s.resultsMakespan / float64(m.FlowsFinished)
	}
	m.VMQuanta = s.vmQ
	m.VMCost = s.vmQ * s.cfg.Sched.Pricing.VMPerQuantum
	m.StorageCost = s.storage.CostAccrued()
	if m.FlowsFinished > 0 {
		m.CostPerFlow = (m.VMCost + m.StorageCost) / float64(m.FlowsFinished)
	}
	return m
}
