package core

import "idxflow/internal/telemetry"

// serviceInstruments are the service-level metric handles, created once at
// NewService so every family appears in a Prometheus scrape before the first
// dataflow is submitted (the executor's families are registered by the
// sim.New call there). All handles are nil-safe no-ops when the service runs
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
	}
}
