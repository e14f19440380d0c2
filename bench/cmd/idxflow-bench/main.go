// Command idxflow-bench is the repository's benchmark driver. It runs one
// workload for about -seconds seconds and prints every metric by name with
// its unit, then, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the metrics
// are the end-to-end ones of BENCHMARK.json, measured with no tracing. With
// -trace 1 they are the per-layer ones, from a separate traced run that also
// writes <out>/<workload>.trace.json. See ../../README.md.
//
// A run is a sequence of blocks. A block sets the system up from nothing
// (set-up is timed on its own) and then times a fixed number of ops, frozen
// below, so every block measures the same program state: server heap grows
// with every admitted flow, and a time-boxed op loop would time a different
// state on every run. -seconds decides how many blocks a run has: blocks
// are added until their timed phases sum to at least -seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

// Op counts per block, calibrated on a 2-core box so that a block's timed
// phase is a third (serve), a fifth (dp_query) or a tenth (dp_build) of the
// 20 s that are the run_seconds of BENCHMARK.json.
var (
	defaultServe = map[string]serveParams{
		"serve_unique":    {tenants: 4, warmupOps: 500, opsPerBlock: 1600, windowOps: 400, traceOps: 240, provCap: defaultProvCap},
		"serve_recurring": {tenants: 4, warmupOps: 500, opsPerBlock: 4000, windowOps: 1000, templates: 24, repeats: 16, traceOps: 480, provCap: defaultProvCap},
	}
	defaultDP = map[string]dpParams{
		"dp_query": {queryScale: 0.1, poolFrames: 256, memRows: 32768, opsPerBlock: 40, windowOps: 10},
		"dp_build": {buildRows: 150000, poolFrames: 256, memRows: 32768, opsPerBlock: 20, windowOps: 10},
	}
)

var workloadNames = []string{"serve_unique", "serve_recurring", "dp_query", "dp_build"}

// block is what one set-up plus one timed phase measured.
type block struct {
	setupS, timedS float64
	peakRSSMB      float64
	ops, failed    int
	latMS          []float64
	windows        []window
	outcome        float64  // summed over the block's ops
	invalid        []string // failed verifications
}

// config is one run's inputs.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	tmpDir    string
	outDir    string
	conns     int
	kernel    *hostKernel
	serve     serveParams
	dp        dpParams
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// invalid lists the verifications and validity gates that failed.
	invalid []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if par, err := strconv.Atoi(os.Getenv(kernelEnv)); err == nil {
		kernelChild(par)
		return
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve_unique | serve_recurring | dp_query | dp_build")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, no tracing; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.serverBin, "server", ".bench_build/bin/idxflow-server", "path of the idxflow-server binary (serve workloads)")
	flag.StringVar(&cfg.tmpDir, "tmp", ".bench_build", "directory for page files; a fresh subdirectory is made and removed")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory the trace is written to")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.conns = runtime.GOMAXPROCS(0)
	cfg.serve = defaultServe[cfg.workload]
	cfg.dp = defaultDP[cfg.workload]

	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(cfg.tmpDir, "run-")
	if err != nil {
		fatal(err)
	}
	cfg.tmpDir = dir
	// A server child dies with this process (Pdeathsig); the page files
	// need removing by hand when a signal ends the run.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(130)
	}()

	res, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	printResult(cfg, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "idxflow-bench:", err)
	os.Exit(1)
}

func printResult(cfg config, res result) {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	fmt.Printf("workload %s seed %d trace %v: %d ops attempted, %d failed\n",
		cfg.workload, cfg.seed, cfg.trace, res.Attempted, res.Failed)
	for _, s := range specs {
		fmt.Printf("  %-36s %16.6f %s\n", s.name, res.Metrics[s.name].Value, s.unit)
	}
	for _, why := range res.invalid {
		fmt.Printf("  INVALID: %s\n", why)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// run executes one workload and turns its blocks into metrics.
func run(cfg config) (result, error) {
	_, isServe := defaultServe[cfg.workload]
	_, isDP := defaultDP[cfg.workload]
	var res result
	var err error
	if cfg.kernel, err = startHostKernel(cfg.conns); err != nil {
		return res, err
	}
	defer cfg.kernel.stop()
	switch {
	case isServe && cfg.trace:
		res, err = runServeTraced(cfg)
	case isServe:
		res, err = runServe(cfg)
	case isDP && cfg.trace:
		res, err = runDPTraced(cfg)
	case isDP:
		res, err = runDP(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	res.Correct = err == nil && res.Failed == 0 && len(res.invalid) == 0
	return res, err
}

// minLatencySamples is what the p90 needs: ten samples beyond it.
const minLatencySamples = 100

// runBlocks calls one until the timed phases add up to at least seconds.
// It calls it at least twice, because the second block is what shows that
// one seed gives one outcome, and until the p90 has its samples, however
// slow the machine.
func runBlocks(seconds float64, one func(i int) (block, error)) ([]block, error) {
	var blocks []block
	var timed float64
	var ops int
	for i := 0; ; i++ {
		b, err := one(i)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, b)
		timed += b.timedS
		ops += b.ops
		if len(blocks) >= 2 && ops >= minLatencySamples && timed >= seconds {
			return blocks, nil
		}
	}
}

// endToEndResult reduces a run's blocks to the end-to-end metrics and
// applies the validity gates every workload shares. Throughput and CPU per
// op are medians over the run's windows, the latency percentiles are taken
// over all its timed ops, and peak memory and set-up time are medians over
// its blocks. Every time is then divided by the host's slowdown over the
// run, the median host-kernel sample over the kernel's reference time; the
// times as the clock gave them are printed beside the reported ones.
func endToEndResult(cfg config, blocks []block, generateS float64) result {
	res := result{Metrics: make(map[string]metricValue)}
	var timed float64
	var latMS, opsPerS, cpuMSPerOp, kernelMS, peakRSSMB, setupS []float64
	for i, b := range blocks {
		res.Attempted += b.ops
		res.Failed += b.failed
		timed += b.timedS
		latMS = append(latMS, b.latMS...)
		for _, w := range b.windows {
			opsPerS = append(opsPerS, w.opsPerS)
			cpuMSPerOp = append(cpuMSPerOp, w.cpuMSPerOp)
			kernelMS = append(kernelMS, w.kernelMS)
		}
		peakRSSMB = append(peakRSSMB, b.peakRSSMB)
		setupS = append(setupS, b.setupS)
		for _, why := range b.invalid {
			res.invalid = append(res.invalid, fmt.Sprintf("block %d: %s", i, why))
		}
		if b.outcome != blocks[0].outcome || b.ops != blocks[0].ops {
			res.invalid = append(res.invalid, fmt.Sprintf("block %d: outcome %v over %d ops, block 0 had %v over %d: one seed must give one outcome",
				i, b.outcome, b.ops, blocks[0].outcome, blocks[0].ops))
		}
	}
	if len(latMS) < minLatencySamples {
		res.invalid = append(res.invalid, fmt.Sprintf("%d latency samples, the p90 needs %d", len(latMS), minLatencySamples))
	}
	if timed < cfg.seconds {
		res.invalid = append(res.invalid, fmt.Sprintf("timed %.1fs of the %.1fs asked for", timed, cfg.seconds))
	}
	// How much slower than the reference the host ran the kernel.
	slow := median(kernelMS) / kernelRefMS
	set := func(name string, v float64) { res.Metrics[name] = metricValue{v, unitOf(endToEnd, name)} }
	set("ops_per_s", median(opsPerS)*slow)
	set("latency_p50_ms", percentile(latMS, 0.50)/slow)
	set("latency_p90_ms", percentile(latMS, 0.90)/slow)
	set("cpu_ms_per_op", median(cpuMSPerOp)/slow)
	set("peak_rss_mb", median(peakRSSMB))
	set("outcome_per_op", blocks[0].outcome/float64(blocks[0].ops))
	set("setup_s", median(setupS)/slow)
	for i, b := range blocks {
		fmt.Printf("block %d: set-up %.3f s, %d ops timed in %.3f s (%.2f ops/s), peak %.1f MB\n",
			i, b.setupS, b.ops, b.timedS, float64(b.ops)/b.timedS, b.peakRSSMB)
	}
	fmt.Printf("bench.generate_s %.6f s; %d blocks, %d windows, %d latency samples, %.3f s timed, %.3f ops/s over all of it\n",
		generateS, len(blocks), len(opsPerS), len(latMS), timed, float64(res.Attempted)/timed)
	fmt.Printf("host kernel %.3f ms (median of %d samples, quartiles %.3f and %.3f), reference %.1f ms: the host ran %.3f times slower, and the times below are divided by that\n",
		median(kernelMS), len(kernelMS), percentile(kernelMS, 0.25), percentile(kernelMS, 0.75), kernelRefMS, slow)
	fmt.Printf("as the clock gave them: %.3f ops/s, latency p50 %.3f ms and p90 %.3f ms, %.3f ms CPU per op, set-up %.3f s\n",
		median(opsPerS), percentile(latMS, 0.50), percentile(latMS, 0.90), median(cpuMSPerOp), median(setupS))
	return res
}

func runServe(cfg config) (result, error) {
	bodies, generateS, err := timedGenerate(cfg)
	if err != nil {
		return result{}, err
	}
	var reports []qaasReport
	blocks, err := runBlocks(cfg.seconds, func(int) (block, error) {
		b, report, err := serveBlock(cfg.serverBin, cfg.serve, bodies, cfg.conns, cfg.kernel)
		reports = append(reports, report)
		return b, err
	})
	if err != nil {
		return result{}, err
	}
	res := endToEndResult(cfg, blocks, generateS)
	for i, r := range reports {
		if why := warmGate(cfg.workload, r.Warm.HitRate); why != "" {
			res.invalid = append(res.invalid, fmt.Sprintf("block %d: %s", i, why))
		}
	}
	return res, nil
}

// warmGate fails a serve workload that stopped exercising what it claims:
// serve_unique must never hit the scheduler's warm memo and serve_recurring
// must mostly hit it.
func warmGate(workload string, hitRatio float64) string {
	switch {
	case workload == "serve_unique" && hitRatio != 0:
		return fmt.Sprintf("warm hit ratio %.3f on serve_unique, want 0", hitRatio)
	case workload == "serve_recurring" && hitRatio < 0.8:
		return fmt.Sprintf("warm hit ratio %.3f on serve_recurring, want at least 0.8", hitRatio)
	}
	return ""
}

func runDP(cfg config) (result, error) {
	var counts dpCounts
	blocks, err := runBlocks(cfg.seconds, func(i int) (block, error) {
		return dpBlock(cfg.workload, cfg.seed, cfg.dp, cfg.tmpDir, cfg.kernel, nil, i*cfg.dp.opsPerBlock, &counts)
	})
	if err != nil {
		return result{}, err
	}
	res := endToEndResult(cfg, blocks, 0)
	if why := dpGate(cfg.workload, cfg.dp, counts); why != "" {
		res.invalid = append(res.invalid, why)
	}
	return res, nil
}

// dpGate fails a data-plane workload that stopped exercising what it
// claims: dp_query must read a table much larger than its buffer pool and
// dp_build must spill several runs per index.
func dpGate(workload string, p dpParams, c dpCounts) string {
	switch {
	case workload == "dp_query" && c.tablePages < 8*p.poolFrames:
		return fmt.Sprintf("the smaller dp_query table holds %d pages, want at least 8x its %d pool frames", c.tablePages, p.poolFrames)
	case workload == "dp_build" && c.runsPerOp < 2*5:
		return fmt.Sprintf("dp_build spills %.0f runs over two indexes, want at least 5 each", c.runsPerOp)
	case workload == "dp_build" && c.spillBytes > 0 && c.spillBytes < c.spillFloor:
		// The run count is derived from the sizes; the bytes are observed,
		// where /proc/self/io can be read.
		return fmt.Sprintf("dp_build wrote %d bytes while building, less than the %d its sorted pairs take: it no longer spills them", c.spillBytes, c.spillFloor)
	}
	return ""
}

func tracePath(cfg config) string {
	return filepath.Join(cfg.outDir, cfg.workload+".trace.json")
}
