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

	"idxflow/internal/cloud"
	"idxflow/internal/data"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/gain"
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

// gainDriven reports whether the strategy ranks indexes by the gain model,
// rewrites dataflows to use them and records their gains.
func (s Strategy) gainDriven() bool { return s == Gain || s == GainNoDelete }

func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("strategy(%d)", int(s))
	}
	return strategyNames[s]
}

// ParseStrategy is the inverse of String, for the commands' -strategy flag.
func ParseStrategy(name string) (Strategy, error) {
	for i, n := range strategyNames {
		if n == name {
			return Strategy(i), nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q", name)
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
	// weighted gain is at least dedicatedMargin times the marginal quantum
	// cost.
	AllowDedicatedBuilds bool
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
	// Telemetry receives the service's metrics; the scheduler and the
	// executor bind their own families in it. Nil means none.
	Telemetry *telemetry.Registry
	// Tracer records nested spans (submit → rank → schedule → execute),
	// all opened by the pass. Nil means none, so tracing costs one nil
	// check per span.
	Tracer *telemetry.Tracer
	// Provenance is the decision flight recorder: every consequential
	// tuner decision (admission, skyline choice, index adoption/eviction,
	// build placement/commit/kill, fault, settlement) is appended as a
	// typed event attributed to the submitting flow. Nil means none, so
	// recording costs one nil check per decision site.
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
	// quantum/lease/money invariants on each interleaved admission. A
	// service calls it from one pass at a time; a hook several services share
	// (the QaaS pipeline's tenants) must be safe for concurrent use.
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
	metrics Metrics
	// resultsMakespan sums Makespan over metrics.Results as they are
	// appended; Aggregates derives its MeanMakespan from it.
	resultsMakespan float64
	// makespanSum accumulates the makespans of flows Run saw finish inside
	// its horizon; Run derives Metrics.MeanMakespan from it so repeated Run
	// calls stay idempotent.
	makespanSum float64
	ins         serviceInstruments
	// nextFlow assigns provenance FlowIDs in submission order.
	nextFlow provenance.FlowID
	// skyline is the tenant's scheduler, built once: every pass's §5.3
	// algorithm runs over it, and it carries the last frontier across
	// submissions.
	skyline *sched.Skyline
	// exec is the tenant's executor, built once beside the skyline: it
	// replays every chosen schedule with the configured runtime error.
	exec *sim.Executor
	// lastUpdate is the service time of the last applied batch update.
	lastUpdate float64
	// fader is the learned per-index fading controller (nil unless
	// Config.AdaptiveFading).
	fader *gain.AdaptiveFader
}

// NewService returns a service over the given file database.
func NewService(cfg Config, db *workload.FileDB) *Service {
	if cfg.MaxBuildOps <= 0 {
		cfg.MaxBuildOps = 64
	}
	// The scheduler binds its counters in the service's registry; cfg is
	// read-only after this.
	cfg.Sched.Metrics = cfg.Telemetry
	s := &Service{
		cfg:     cfg,
		db:      db,
		eval:    gain.NewEvaluator(cfg.Gain),
		storage: cloud.NewStorage(cfg.Sched.Pricing),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		skyline: sched.NewSkyline(cfg.Sched),
		ins:     newServiceInstruments(cfg.Telemetry),
	}
	var actual func(op *dataflow.Operator) float64
	if e := cfg.RuntimeError; e > 0 {
		actual = func(op *dataflow.Operator) float64 {
			return op.Time * (1 + (s.rng.Float64()*2-1)*e)
		}
	}
	s.exec = sim.New(sim.Config{
		Pricing: cfg.Sched.Pricing, Spec: cfg.Sched.Spec, Actual: actual,
		Metrics: cfg.Telemetry,
	})
	if cfg.AdaptiveFading {
		s.fader = gain.NewAdaptiveFader(cfg.Gain.FadeD)
		s.eval.FadeOverride = s.fader.FadeFor
	}
	return s
}

// Telemetry returns the metrics registry the service reports into.
func (s *Service) Telemetry() *telemetry.Registry { return s.cfg.Telemetry }

// Catalog exposes the underlying catalog (index states).
func (s *Service) Catalog() *data.Catalog { return s.db.Catalog }

// Clock returns the service time in seconds.
func (s *Service) Clock() float64 { return s.clock }

// WarmStats snapshots the scheduler's warm-start counters.
func (s *Service) WarmStats() sched.WarmStats { return s.skyline.WarmStats() }

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
	s.accrueStorage(horizon)
	return s.derive(s.metrics, s.makespanSum)
}

// derive fills in the columns of m that are functions of the raw tallies —
// MeanMakespan from the given makespan sum over m.FlowsFinished, the VM and
// storage money, CostPerFlow — so Run and Aggregates cannot drift apart.
func (s *Service) derive(m Metrics, makespanSum float64) Metrics {
	m.VMCost = m.VMQuanta * s.cfg.Sched.Pricing.VMPerQuantum
	m.StorageCost = s.storage.CostAccrued()
	if m.FlowsFinished > 0 {
		m.MeanMakespan = makespanSum / float64(m.FlowsFinished)
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
	return s.derive(m, s.resultsMakespan)
}
