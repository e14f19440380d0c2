package main

// metricSpec names one metric of BENCHMARK.json. A test checks that the two
// lists below and the file agree.
type metricSpec struct{ name, unit string }

// endToEnd is what a user of the system sees. A -trace 0 run reports these.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"outcome_per_op", "count"},
	{"setup_s", "s"},
}

// perLayer is what a -trace 1 run reports, every name on every workload: a
// layer the workload leaves idle reports 0, which is itself the prediction
// that a change to that layer does not move this workload.
var perLayer = []metricSpec{
	{"server.handle_ms_per_op", "ms"},
	{"server.self_ms_per_op", "ms"},
	{"server.resp_kb_per_op", "kB"},
	{"flowlang.parse_ms_per_op", "ms"},
	{"flowlang.body_kb_per_op", "kB"},
	{"flowlang.alloc_kb_per_op", "kB"},
	{"qaas.submit_ms_per_op", "ms"},
	{"qaas.self_ms_per_op", "ms"},
	{"qaas.rejected_per_op", "count"},
	{"qaas.batch_mean_size", "count"},
	{"qaas.fleet_peak", "count"},
	{"core.submit_ms_per_op", "ms"},
	{"core.alloc_kb_per_op", "kB"},
	{"core.mallocs_per_op", "count"},
	{"core.gc_cycles_per_kop", "count"},
	{"core.retained_kb_per_op", "kB"},
	{"gain.indexes_used_per_op", "count"},
	{"gain.deleted_per_op", "count"},
	{"gain.delta_updates_per_op", "count"},
	{"interleave.builds_completed_per_op", "count"},
	{"interleave.builds_killed_per_op", "count"},
	{"sched.cold_ms_per_op", "ms"},
	{"sched.cold_alloc_kb_per_op", "kB"},
	{"sched.frontier_size_mean", "count"},
	{"sched.warm_hit_ratio", "ratio"},
	{"sim.execute_ms_per_op", "ms"},
	{"sim.ops_per_flow", "count"},
	{"pagestore.colscan_ms_per_op", "ms"},
	{"pagestore.fetch_ms_per_op", "ms"},
	{"pagestore.append_ms_per_op", "ms"},
	{"pagestore.pages_read_per_op", "count"},
	{"pagestore.pages_written_per_op", "count"},
	{"pagestore.pool_hit_ratio", "ratio"},
	{"pagestore.bytes_per_row", "B"},
	{"exec.select_ms_per_op", "ms"},
	{"exec.hashbuild_ms_per_op", "ms"},
	{"exec.hashprobe_ms_per_op", "ms"},
	{"exec.group_ms_per_op", "ms"},
	{"exec.sort_ms_per_op", "ms"},
	{"exec.smj_ms_per_op", "ms"},
	{"exec.rows_in_per_op", "count"},
	{"exec.rows_out_per_op", "count"},
	{"exec.alloc_mb_per_op", "MB"},
	{"bptree.range_ms_per_op", "ms"},
	{"bptree.get_ms_per_op", "ms"},
	{"bptree.bulkload_ms_per_op", "ms"},
	{"bptree.height", "count"},
	{"bptree.bytes_per_entry", "B"},
	{"extsort.build_ms_per_op", "ms"},
	{"extsort.runs_per_op", "count"},
	{"extsort.spill_kb_per_op", "kB"},
	{"extsort.alloc_mb_per_op", "MB"},
	{"bench.generate_s", "s"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.timed_s", "s"},
	{"bench.host_kernel_ms", "ms"},
}

func unitOf(specs []metricSpec, name string) string {
	for _, s := range specs {
		if s.name == name {
			return s.unit
		}
	}
	panic("no metric " + name)
}

// layerMetrics starts a -trace 1 result with every per-layer metric at 0.
func layerMetrics() map[string]metricValue {
	m := make(map[string]metricValue, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = metricValue{0, s.unit}
	}
	return m
}
