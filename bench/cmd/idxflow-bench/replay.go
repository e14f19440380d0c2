package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"idxflow/internal/core"
	"idxflow/internal/dataflow"
	"idxflow/internal/flowlang"
	"idxflow/internal/provenance"
	"idxflow/internal/qaas"
	"idxflow/internal/sched"
	"idxflow/internal/server"
	"idxflow/internal/sim"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// The in-process replay gives the serve layers their numbers without
// spans inside the program. The layers are nested public entry points, so
// three replicas built from one seed take every op: A through the HTTP
// handler, B through qaas.Pipeline.Submit, C through a bare
// core.Service.SubmitCtx. The exact-replay invariant makes the work
// inside identical (the replay checks the money agrees), so a layer's self
// time is its replica's time minus the next one's.

// The server's flag defaults, which the replicas mirror.
const (
	fleetContainers = 64
	queueDepth      = 256
	tenantInflight  = 64
	// defaultProvCap is -prov-cap, the events of a tenant's provenance ring.
	// The rings are most of the server's memory.
	defaultProvCap = 262144
)

func replicaCoreConfig(reg *telemetry.Registry) core.Config {
	cfg := core.DefaultConfig()
	cfg.Telemetry = reg
	// qaas.New clamps a schedule to the fleet; replica C has no pipeline
	// to do it.
	cfg.Sched.MaxContainers = fleetContainers
	return cfg
}

func newPipeline(workers, provCap int) *qaas.Pipeline {
	return qaas.New(qaas.Config{
		Core:               replicaCoreConfig(telemetry.NewRegistry()),
		Seed:               catalogSeed,
		Workers:            workers,
		QueueDepth:         queueDepth,
		TenantInflight:     tenantInflight,
		FleetContainers:    fleetContainers,
		ProvenanceCapacity: provCap,
	})
}

// bareServices builds replica C: per tenant, what qaas.Pipeline builds
// around a core.Service, without the pipeline.
func bareServices(tenants, provCap int, reg *telemetry.Registry) ([]*core.Service, error) {
	out := make([]*core.Service, tenants)
	for t := range out {
		ts := qaas.TenantSeed(catalogSeed, tenantName(t))
		db, err := workload.NewFileDB(ts)
		if err != nil {
			return nil, err
		}
		cfg := replicaCoreConfig(reg)
		cfg.Seed = ts
		cfg.Provenance = provenance.NewRecorder(provCap)
		out[t] = core.NewService(cfg, db)
	}
	return out, nil
}

// replayCounts are exact counts taken at the layer boundaries of a replay,
// over its measured ops.
type replayCounts struct {
	wallS                         float64
	opMS                          []float64 // wall time of each op's calls
	bodyBytes, respBytes          int64
	frontier, simOps              int64
	indexesUsed, deleted          int64
	buildsCompleted, buildsKilled int64
	warmHits, warmMisses          uint64
	deltaUpdates                  float64
	retainedBytes                 int64 // by replica C, over the skipped ops too
	mismatches                    int
	firstMismatch                 string
	money                         float64
}

// replay takes the first skip+ops ops of bodies through fresh replicas, op
// i going to tenant i mod tenants, and measures the last ops of them: the
// skipped ones are the timed run's warm-up, which instantiates the tenants
// and builds the first indexes, so that the measured ops are ops the timed
// phase times. With a nil tracer it measures only the wall time.
func replay(tr *tracer, bodies [][]string, skip, ops, workers, provCap int) (replayCounts, error) {
	var c replayCounts
	tenants := len(bodies)
	ctx := context.Background()

	regC := telemetry.NewRegistry()
	svcs, err := bareServices(tenants, provCap, regC)
	if err != nil {
		return c, err
	}
	// What C retains per op is the live heap's growth across the replay
	// with everything else dropped.
	heapBefore := liveHeap()

	pipeA := newPipeline(workers, provCap)
	handler := server.NewQaaS(pipeA, nil).Handler()
	pipeB := newPipeline(workers, provCap)
	schedOpts := replicaCoreConfig(nil).Sched
	simCfg := sim.Config{Pricing: schedOpts.Pricing, Spec: schedOpts.Spec}
	deltaUpdates := regC.Counter("idxflow_gain_delta_updates_total", "")
	warmStats := func() (hits, misses uint64) {
		for _, svc := range svcs {
			w := svc.WarmStats()
			hits += w.Hits
			misses += w.Misses
		}
		return hits, misses
	}

	var start time.Time
	var hitsBefore, missesBefore uint64
	var deltaBefore float64
	for i := 0; i < skip+ops; i++ {
		measured := i >= skip
		opTr := tr
		if !measured {
			opTr = nil
		}
		if i == skip {
			hitsBefore, missesBefore = warmStats()
			deltaBefore = deltaUpdates.Value()
			start = time.Now()
		}
		t := i % tenants
		body := bodies[t][i/tenants]
		// Every replica owns the flow it is given: a parse per replica,
		// only C's inside a span.
		flowB, err := flowlang.ParseString(body)
		if err != nil {
			return c, err
		}
		// The scheduler and the simulator alone take the flow as submitted.
		var flowS *dataflow.Flow
		if measured {
			if flowS, err = flowlang.ParseString(body); err != nil {
				return c, err
			}
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/dataflows?tenant="+tenantName(t), strings.NewReader(body))
		rec := httptest.NewRecorder()

		var moneyA, moneyB, moneyC float64
		var resC core.FlowResult
		var opErr error
		opStart := time.Now()
		opTr.do("op", i, func() {
			opTr.do("server.handle", i, func() { handler.ServeHTTP(rec, req) })
			var resB core.FlowResult
			opTr.do("qaas.submit", i, func() { resB, opErr = pipeB.Submit(ctx, tenantName(t), flowB) })
			if opErr != nil {
				return
			}
			moneyB = resB.MoneyQuanta

			var flowC *dataflow.Flow
			opTr.do("flowlang.parse", i, func() { flowC, opErr = flowlang.ParseString(body) })
			if opErr != nil {
				return
			}
			opTr.do("core.submit", i, func() { resC = svcs[t].SubmitCtx(ctx, flowC) })
			moneyC = resC.MoneyQuanta
			if !measured {
				return
			}

			var frontier []*sched.Schedule
			opTr.do("sched.cold", i, func() { frontier = sched.NewSkyline(schedOpts).Schedule(flowS.Graph) })
			c.frontier += int64(len(frontier))
			fastest := sched.Fastest(frontier)
			if fastest == nil {
				opErr = fmt.Errorf("op %d: empty frontier", i)
				return
			}
			c.simOps += int64(fastest.Assigned())
			opTr.do("sim.execute", i, func() { sim.Execute(fastest, simCfg) })
		})
		opMS := time.Since(opStart).Seconds() * 1e3
		if opErr != nil {
			return c, opErr
		}
		var reply submitReply
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err == nil {
				moneyA = reply.MoneyQuanta
			}
		}
		if moneyA != moneyB || moneyB != moneyC || moneyC <= 0 {
			if c.mismatches == 0 {
				c.firstMismatch = fmt.Sprintf("op %d: handler replied %d with %v quanta, the pipeline %v, the bare service %v",
					i, rec.Code, moneyA, moneyB, moneyC)
			}
			c.mismatches++
		}
		if !measured {
			continue
		}
		c.opMS = append(c.opMS, opMS)
		c.bodyBytes += int64(len(body))
		c.respBytes += int64(rec.Body.Len())
		c.indexesUsed += int64(len(resC.IndexesUsed))
		c.deleted += int64(len(resC.Deleted))
		c.buildsCompleted += int64(resC.BuildsCompleted)
		c.buildsKilled += int64(resC.BuildsKilled)
		c.money += moneyC
	}
	c.wallS = time.Since(start).Seconds()

	hits, misses := warmStats()
	c.warmHits, c.warmMisses = hits-hitsBefore, misses-missesBefore
	c.deltaUpdates = deltaUpdates.Value() - deltaBefore

	drain, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := pipeA.Drain(drain); err != nil {
		return c, err
	}
	if err := pipeB.Drain(drain); err != nil {
		return c, err
	}
	pipeA, pipeB, handler = nil, nil, nil
	c.retainedBytes = int64(liveHeap()) - int64(heapBefore)
	// The inputs were live at the first measurement; they must be at the
	// second, also when this is their last use.
	runtime.KeepAlive(bodies)
	runtime.KeepAlive(svcs)
	return c, nil
}

// liveHeap returns the bytes of reachable heap objects. It collects twice
// because a sync.Pool's contents survive one collection in its victim cache.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}
