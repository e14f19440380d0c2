package main

import (
	"fmt"
	"strings"
	"time"
)

// timedGenerate builds a serve workload's inputs. It is the benchmark's own
// cost, reported as bench.generate_s and kept out of setup_s.
func timedGenerate(cfg config) ([][]string, float64, error) {
	start := time.Now()
	bodies, err := generateBodies(cfg.workload, cfg.seed, cfg.serve)
	return bodies, time.Since(start).Seconds(), err
}

// layerResult starts the result of a traced run.
func layerResult(ops, failed int) (result, func(name string, v float64)) {
	res := result{Attempted: ops, Failed: failed, Metrics: layerMetrics()}
	set := func(name string, v float64) {
		res.Metrics[name] = metricValue{v, unitOf(perLayer, name)}
	}
	return res, set
}

// kernelSamples returns the host-kernel samples of the blocks' windows. The
// layer times of a traced run are reported as the clock gave them; dividing
// them by bench.host_kernel_ms over kernelRefMS compares them across runs.
func kernelSamples(blocks ...block) []float64 {
	var ms []float64
	for _, b := range blocks {
		for _, w := range b.windows {
			ms = append(ms, w.kernelMS)
		}
	}
	return ms
}

// runServeTraced gives a serve workload's layers their numbers, outside
// in: one block against the server child for what only the concurrent
// pipeline shows (/v1/qaas), then the in-process replay, with spans and
// again without.
func runServeTraced(cfg config) (result, error) {
	bodies, generateS, err := timedGenerate(cfg)
	if err != nil {
		return result{}, err
	}
	b, report, err := serveBlock(cfg.serverBin, cfg.serve, bodies, cfg.conns, cfg.kernel)
	if err != nil {
		return result{}, err
	}

	// The replay measures the ops that follow the warm-up, as the timed
	// phase does.
	skip, ops := cfg.serve.warmupOps, cfg.serve.traceOps
	if max := len(bodies)*len(bodies[0]) - skip; ops > max {
		ops = max
	}
	tr := newTracer()
	traced, err := replay(tr, bodies, skip, ops, cfg.conns, cfg.serve.provCap)
	if err != nil {
		return result{}, err
	}
	plain, err := replay(nil, bodies, skip, ops, cfg.conns, cfg.serve.provCap)
	if err != nil {
		return result{}, err
	}
	if err := tr.write(tracePath(cfg)); err != nil {
		return result{}, err
	}

	res, set := layerResult(b.ops+2*ops, b.failed+traced.mismatches+plain.mismatches)
	res.invalid = append(res.invalid, b.invalid...)
	for _, c := range []replayCounts{traced, plain} {
		if c.mismatches > 0 {
			res.invalid = append(res.invalid, "replicas disagree: "+c.firstMismatch)
		}
	}
	if traced.money != plain.money {
		res.invalid = append(res.invalid, fmt.Sprintf("the traced replay charged %v quanta, the untraced %v", traced.money, plain.money))
	}
	// The gate is on the server child's whole block, as in the timed run.
	// The metric is replica C's ratio over the replayed ops, the ones the
	// spans time.
	if why := warmGate(cfg.workload, report.Warm.HitRate); why != "" {
		res.invalid = append(res.invalid, why)
	}
	fmt.Printf("warm hit ratio of the server child's block: %.3f\n", report.Warm.HitRate)
	var hitRatio float64
	if n := traced.warmHits + traced.warmMisses; n > 0 {
		hitRatio = float64(traced.warmHits) / float64(n)
	}

	n := float64(ops)
	tot := tr.totals()
	perOpMS := func(name string) float64 { return tot[name].ms() / n }
	perOpKB := func(bytes float64) float64 { return bytes / 1024 / n }

	handle, submit, coreMS, parse := perOpMS("server.handle"), perOpMS("qaas.submit"), perOpMS("core.submit"), perOpMS("flowlang.parse")
	set("server.handle_ms_per_op", handle)
	set("server.self_ms_per_op", handle-submit-parse)
	set("server.resp_kb_per_op", perOpKB(float64(traced.respBytes)))
	set("flowlang.parse_ms_per_op", parse)
	set("flowlang.body_kb_per_op", perOpKB(float64(traced.bodyBytes)))
	set("flowlang.alloc_kb_per_op", perOpKB(float64(tot["flowlang.parse"].allocBytes)))
	set("qaas.submit_ms_per_op", submit)
	set("qaas.self_ms_per_op", submit-coreMS)
	set("qaas.rejected_per_op", float64(report.Rejected)/float64(report.Admitted+report.Rejected))
	set("qaas.batch_mean_size", report.Batch.MeanSize)
	set("qaas.fleet_peak", float64(report.Fleet.Peak))
	set("core.submit_ms_per_op", coreMS)
	set("core.alloc_kb_per_op", perOpKB(float64(tot["core.submit"].allocBytes)))
	set("core.mallocs_per_op", float64(tot["core.submit"].mallocs)/n)
	set("core.gc_cycles_per_kop", float64(tot["core.submit"].gcCycles)/n*1000)
	set("core.retained_kb_per_op", float64(plain.retainedBytes)/1024/float64(skip+ops))
	set("gain.indexes_used_per_op", float64(traced.indexesUsed)/n)
	set("gain.deleted_per_op", float64(traced.deleted)/n)
	set("gain.delta_updates_per_op", traced.deltaUpdates/n)
	set("interleave.builds_completed_per_op", float64(traced.buildsCompleted)/n)
	set("interleave.builds_killed_per_op", float64(traced.buildsKilled)/n)
	set("sched.cold_ms_per_op", perOpMS("sched.cold"))
	set("sched.cold_alloc_kb_per_op", perOpKB(float64(tot["sched.cold"].allocBytes)))
	set("sched.frontier_size_mean", float64(traced.frontier)/n)
	set("sched.warm_hit_ratio", hitRatio)
	set("sim.execute_ms_per_op", perOpMS("sim.execute"))
	set("sim.ops_per_flow", float64(traced.simOps)/n)
	set("bench.generate_s", generateS)
	set("bench.trace_overhead_pct", (median(traced.opMS)-median(plain.opMS))/median(plain.opMS)*100)
	set("bench.timed_s", traced.wallS)
	set("bench.host_kernel_ms", median(kernelSamples(b)))
	return res, nil
}

// runDPTraced runs a data-plane workload's timed loop twice, first without
// spans and then with them; the difference is the tracing overhead.
func runDPTraced(cfg config) (result, error) {
	var plainCounts, counts dpCounts
	plain, err := dpBlock(cfg.workload, cfg.seed, cfg.dp, cfg.tmpDir, cfg.kernel, nil, 0, &plainCounts)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := dpBlock(cfg.workload, cfg.seed, cfg.dp, cfg.tmpDir, cfg.kernel, tr, plain.ops, &counts)
	if err != nil {
		return result{}, err
	}
	if err := tr.write(tracePath(cfg)); err != nil {
		return result{}, err
	}

	res, set := layerResult(plain.ops+traced.ops, plain.failed+traced.failed)
	if plain.outcome != traced.outcome {
		res.invalid = append(res.invalid, fmt.Sprintf("the traced block's outcome is %v, the untraced block's %v", traced.outcome, plain.outcome))
	}
	if why := dpGate(cfg.workload, cfg.dp, counts); why != "" {
		res.invalid = append(res.invalid, why)
	}

	n := float64(traced.ops)
	tot := tr.totals()
	perOpMS := func(name string) float64 { return tot[name].ms() / n }
	layerAllocMB := func(layer string) float64 {
		var bytes uint64
		for name, t := range tot {
			if strings.HasPrefix(name, layer+".") {
				bytes += t.allocBytes
			}
		}
		return float64(bytes) / 1e6 / n
	}
	set("pagestore.colscan_ms_per_op", perOpMS("pagestore.colscan"))
	set("pagestore.fetch_ms_per_op", perOpMS("pagestore.fetch"))
	set("pagestore.append_ms_per_op", perOpMS("pagestore.append"))
	set("pagestore.pages_read_per_op", float64(counts.io.reads)/n)
	set("pagestore.pages_written_per_op", float64(counts.io.writes)/n)
	if lookups := counts.io.hits + counts.io.misses; lookups > 0 {
		set("pagestore.pool_hit_ratio", float64(counts.io.hits)/float64(lookups))
	}
	set("pagestore.bytes_per_row", counts.bytesPerRow)
	for _, name := range []string{"select", "hashbuild", "hashprobe", "group", "sort", "smj"} {
		set("exec."+name+"_ms_per_op", perOpMS("exec."+name))
	}
	set("exec.rows_in_per_op", float64(counts.execRowsIn)/n)
	set("exec.rows_out_per_op", float64(counts.execRowsOut)/n)
	set("exec.alloc_mb_per_op", layerAllocMB("exec"))
	set("bptree.range_ms_per_op", perOpMS("bptree.range"))
	set("bptree.get_ms_per_op", perOpMS("bptree.get"))
	set("bptree.bulkload_ms_per_op", perOpMS("bptree.bulkload"))
	set("bptree.height", float64(counts.treeHeight))
	set("bptree.bytes_per_entry", counts.treeBytesPerEntry)
	set("extsort.build_ms_per_op", perOpMS("extsort.build"))
	set("extsort.runs_per_op", counts.runsPerOp)
	set("extsort.spill_kb_per_op", float64(counts.spillBytes)/1024/n)
	set("extsort.alloc_mb_per_op", layerAllocMB("extsort"))
	set("bench.trace_overhead_pct", (median(traced.latMS)-median(plain.latMS))/median(plain.latMS)*100)
	set("bench.timed_s", traced.timedS)
	set("bench.host_kernel_ms", median(kernelSamples(plain, traced)))
	return res, nil
}
