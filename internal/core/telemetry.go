package core

import (
	"idxflow/internal/dataflow"
	"idxflow/internal/provenance"
	"idxflow/internal/sim"
	"idxflow/internal/telemetry"
)

// serviceInstruments are every metric handle of a submit, created once at
// NewService so every family appears in a Prometheus scrape before the first
// dataflow is submitted. The scheduler and the executor bind none: the pass
// updates these from what each stage returned — the gain ranking's counts,
// the skyline's search effort, the executor's Result, the storage meter's
// accrued cost. All handles are nil-safe no-ops when the service runs
// without a registry.
type serviceInstruments struct {
	flowsSubmitted  *telemetry.Counter
	flowsFinished   *telemetry.Counter
	flowMakespan    *telemetry.Histogram
	flowQuanta      *telemetry.Histogram
	idleDiscovered  *telemetry.Counter
	idleUsed        *telemetry.Counter
	buildOpsOffered *telemetry.Counter
	buildOpsPlaced  *telemetry.Counter
	partitionsBuilt *telemetry.Counter
	indexesDeleted  *telemetry.Counter
	invalidated     *telemetry.Counter
	estGain         *telemetry.Histogram
	realGain        *telemetry.Histogram
	clockGauge      *telemetry.Gauge
	indexesAvail    *telemetry.Gauge
	// The gain ranking's activity: candidates evaluated and how many
	// passed the beneficial test.
	gainEvaluated  *telemetry.Counter
	gainBeneficial *telemetry.Counter
	// The storage service: accrued cost, MB committed to it and the
	// footprint as of the last settle.
	storageCost        *telemetry.Counter
	storageTransferred *telemetry.Counter
	storageMB          *telemetry.Gauge
	storageFiles       *telemetry.Gauge
	// The skyline scheduler (Alg. 4): warm-memo hits and a cold run's
	// search effort.
	warmHits, skylineIterations, skylineCandidates *telemetry.Counter
	skylineFrontier                                *telemetry.Histogram
	// The executor (§6.1): build outcomes, the money charged, the faults'
	// effects and realized operator times.
	buildsKilled, buildsCompleted              *telemetry.Counter
	quantaCharged, fragmentation, wastedQuanta *telemetry.Counter
	faultsInjected, recoveries                 *telemetry.CounterVec
	opWait                                     *telemetry.Histogram

	// opRunByKind caches opRun's series as runs first touch them, so a
	// series appears with its first sample.
	opRun       *telemetry.HistogramVec
	opRunByKind [int(dataflow.KindBuildIndex) + 1]*telemetry.Histogram
}

func newServiceInstruments(reg *telemetry.Registry) serviceInstruments {
	telemetry.RegisterBuildInfo(reg)
	quanta := telemetry.ExponentialBuckets(1, 2, 10)
	gains := telemetry.ExponentialBuckets(0.125, 2, 14)
	return serviceInstruments{
		flowsSubmitted: reg.Counter("idxflow_flows_submitted_total",
			"Dataflows submitted to the service."),
		flowsFinished: reg.Counter("idxflow_flows_finished_total",
			"Dataflows executed to completion by the service."),
		flowMakespan: reg.Histogram("idxflow_flow_makespan_seconds",
			"Realized dataflow execution time in seconds.",
			telemetry.ExponentialBuckets(15, 2, 12)),
		flowQuanta: reg.Histogram("idxflow_flow_quanta",
			"Realized VM quanta charged per dataflow.", quanta),
		idleDiscovered: reg.Counter("idxflow_idle_slot_seconds_total",
			"Idle-slot seconds discovered in chosen schedules (paid-but-idle time available for index builds)."),
		idleUsed: reg.Counter("idxflow_idle_slot_seconds_used_total",
			"Idle-slot seconds filled with interleaved index-build operators."),
		buildOpsOffered: reg.Counter("idxflow_build_ops_offered_total",
			"Index-build partition operators offered to the interleaver."),
		buildOpsPlaced: reg.Counter("idxflow_interleave_build_ops_placed_total",
			"Index-build operators packed into idle slots across skyline schedules."),
		partitionsBuilt: reg.Counter("idxflow_index_partitions_built_total",
			"Index partitions committed to the catalog after building."),
		indexesDeleted: reg.Counter("idxflow_indexes_deleted_total",
			"Indexes dropped by the non-beneficial deletion rule."),
		invalidated: reg.Counter("idxflow_index_partitions_invalidated_total",
			"Index partitions invalidated by batch data updates."),
		estGain: reg.Histogram("idxflow_index_estimated_gain",
			"Per-partition weighted gain estimate (Eq. 3) at build-decision time.", gains),
		realGain: reg.Histogram("idxflow_index_realized_gain_quanta",
			"Realized per-dataflow time gain of a used index, in quanta.", gains),
		clockGauge: reg.Gauge("idxflow_service_clock_seconds",
			"Service time: completion point of the last executed dataflow."),
		indexesAvail: reg.Gauge("idxflow_indexes_available",
			"Indexes with at least one built partition."),
		gainEvaluated: reg.Counter("idxflow_gain_candidates_evaluated_total",
			"Index candidates evaluated by the gain ranking."),
		gainBeneficial: reg.Counter("idxflow_gain_beneficial_total",
			"Candidates that passed the beneficial test (gt > 0 and gm > 0)."),
		storageCost: reg.Counter("idxflow_storage_cost_dollars_total",
			"Cumulative storage-service cost accrued, in dollars."),
		storageTransferred: reg.Counter("idxflow_storage_transferred_mb_total",
			"Cumulative MB moved in and out of the storage service."),
		storageMB: reg.Gauge("idxflow_storage_mb",
			"Bytes currently held in the storage service, in MB."),
		storageFiles: reg.Gauge("idxflow_storage_files",
			"Files currently held in the storage service."),
		warmHits: reg.Counter("idxflow_sched_warm_hits_total",
			"Warm-frontier memo hits: submissions scheduled by replaying the carried Pareto frontier."),
		skylineIterations: reg.Counter("idxflow_skyline_iterations_total",
			"Skyline list-scheduler iterations (one per operator placed)."),
		skylineCandidates: reg.Counter("idxflow_skyline_candidates_total",
			"Candidate partial schedules generated across skyline iterations."),
		skylineFrontier: reg.Histogram("idxflow_skyline_frontier_size",
			"Pareto frontier size after each skyline iteration.",
			telemetry.ExponentialBuckets(1, 2, 8)),
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

// observeRun adds a completed run of g to the executor families: each
// operator's occupancy by kind, each dataflow operator's wait and each
// build's outcome, in id order, the run's totals, and its fault events
// counted by fault kind.
func (ins *serviceInstruments) observeRun(g *dataflow.Graph, run *sim.Result) {
	for id, r := range run.Ops {
		if !r.Ran() {
			continue
		}
		op := g.Op(dataflow.OpID(id))
		ins.opRunOf(op.Kind).Observe(r.End - r.Start)
		switch {
		case !op.Optional:
			ins.opWait.Observe(r.Start - r.Ready)
		case r.Killed:
			ins.buildsKilled.Inc()
		default:
			ins.buildsCompleted.Inc()
		}
	}
	ins.quantaCharged.Add(run.MoneyQuanta)
	ins.fragmentation.Add(run.Fragmentation)
	ins.wastedQuanta.Add(run.WastedQuanta)
	for _, ev := range run.Events {
		switch ev.Kind {
		case provenance.KindFaultInjected:
			ins.faultsInjected.With(ev.Name).Add(float64(ev.Count))
		case provenance.KindFaultRecovered:
			ins.recoveries.With(ev.Name).Add(float64(ev.Count))
		}
	}
}

// opRunOf returns operator kind k's run-time series, resolved on first use.
func (ins *serviceInstruments) opRunOf(k dataflow.Kind) *telemetry.Histogram {
	if k < 0 || int(k) >= len(ins.opRunByKind) {
		return ins.opRun.With(k.String())
	}
	if ins.opRunByKind[k] == nil {
		ins.opRunByKind[k] = ins.opRun.With(k.String())
	}
	return ins.opRunByKind[k]
}
