// Command idxflow-server runs the QaaS service as an HTTP server: dataflows
// are submitted in flowlang format to POST /v1/dataflows and executed with
// online index tuning; GET /v1/indexes, /v1/metrics and /v1/tables expose
// a tenant's state, GET /v1/qaas the pipeline snapshot, GET /debug/audit
// the accounting verdict, and GET /metrics serves the telemetry registry in
// the Prometheus text exposition format.
//
// Every submission goes through the concurrent multi-tenant admission
// pipeline: a request names its tenant with ?tenant= or X-Idxflow-Tenant
// (one that names none is tenant "default"), each tenant gets isolated
// tuning state over its own deterministic database
// (workload.NewFileDB(qaas.TenantSeed(seed, tenant))), a worker pool
// executes Algorithm-1 passes concurrently against a shared container
// fleet that also clamps every schedule's width, and a full queue answers
// HTTP 429 with Retry-After.
//
// On SIGINT/SIGTERM the server shuts down gracefully: the listener closes
// immediately and in-flight requests get -drain to finish. With -trace or
// -events, the span timeline and each tenant's decision-provenance event
// log (<path>.<tenant>) are flushed to their files after the drain, so
// decisions made by the last in-flight submissions are captured.
//
// Usage:
//
//	idxflow-server [-addr :8080] [-strategy gain] [-seed 1] [-drain 10s]
//	               [-trace out.json] [-events out.jsonl]
//	               [-workers 8] [-queue 256] [-tenant-inflight 64]
//	               [-max-tenants 256] [-fleet 64] [-pace 0]
//	               [-prov-cap 262144] [-audit]
//
// -qaas is accepted and ignored (the pipeline is the only mode): the
// benchmark driver under bench/ still passes it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"idxflow/internal/check"
	"idxflow/internal/core"
	"idxflow/internal/profiling"
	"idxflow/internal/qaas"
	"idxflow/internal/server"
	"idxflow/internal/telemetry"
)

func main() {
	srv, addr, drain, err := build(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2) // build already reported it
	}

	// SIGINT/SIGTERM cancel the context; in-flight submissions drain
	// before the process exits instead of dying mid-execution.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx, addr, drain); err != nil {
		log.Fatal(err)
	}
	log.Print("idxflow-server: drained, shutting down")
}

// build parses the command line and wires the pipeline and the server. A
// bad flag or value is reported on stderr and returned.
func build(args []string, stderr io.Writer) (srv *server.Server, addr string, drain time.Duration, err error) {
	fs := flag.NewFlagSet("idxflow-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrF    = fs.String("addr", ":8080", "listen address")
		strategy = fs.String("strategy", "gain", "no-index | random | gain-no-delete | gain")
		seed     = fs.Int64("seed", 1, "base random seed; tenant t serves the file database of qaas.TenantSeed(seed, t)")
		drainF   = fs.Duration("drain", server.DefaultDrainTimeout, "in-flight request drain timeout on shutdown")
		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON span timeline to this file on shutdown")
		events   = fs.String("events", "", "write each tenant's decision-provenance event log (JSONL) to <path>.<tenant> on shutdown; /debug/events serves it live")

		workers  = fs.Int("workers", 8, "concurrent Algorithm-1 executors")
		queue    = fs.Int("queue", 256, "bounded admission queue depth")
		tenantIn = fs.Int("tenant-inflight", 64, "per-tenant fair-share cap on in-flight admissions (-1 disables)")
		maxTen   = fs.Int("max-tenants", qaas.DefaultMaxTenants, "cap on distinct tenants a server instantiates (-1 disables)")
		fleet    = fs.Int("fleet", 64, "shared container fleet capacity; also the widest schedule")
		pace     = fs.Float64("pace", 0, "wall-clock ms of container occupancy per billing quantum of makespan")
		provCap  = fs.Int("prov-cap", 262144, "per-tenant provenance ring capacity in events: an upper bound, allocated 4096 events at a time")
		audit    = fs.Bool("audit", true, "run check.Audit on every execution, verdict at /debug/audit")
	)
	fs.Bool("qaas", false, "ignored: the admission pipeline is the only mode")
	if err := fs.Parse(args); err != nil {
		return nil, "", 0, err
	}

	cfg := core.DefaultConfig()
	if cfg.Strategy, err = core.ParseStrategy(*strategy); err != nil {
		fmt.Fprintln(stderr, err)
		return nil, "", 0, err
	}

	// The registry is this server's own: /metrics reports this server only.
	cfg.Telemetry = telemetry.NewRegistry()
	if *traceOut != "" {
		cfg.Tracer = telemetry.NewTracer()
	}

	var auditor *check.ExecAuditor
	pcfg := qaas.Config{
		Core:               cfg,
		Seed:               *seed,
		Workers:            *workers,
		QueueDepth:         *queue,
		TenantInflight:     *tenantIn,
		MaxTenants:         *maxTen,
		FleetContainers:    *fleet,
		PaceMSPerQuantum:   *pace,
		ProvenanceCapacity: *provCap,
	}
	if *audit {
		// Exact replay holds whenever no runtime-error model or fault
		// plan perturbs executions — true for every flag this command
		// exposes.
		auditor = &check.ExecAuditor{Exact: true}
		pcfg.PostExec = auditor.Hook
	}
	pipe := qaas.New(pcfg)
	srv = server.NewQaaS(pipe, auditor)
	if *events != "" {
		srv.OnShutdown(func() {
			for _, t := range pipe.Tenants() {
				path := *events + "." + t.Name()
				rec := t.Recorder()
				if err := profiling.WriteFile(path, rec.WriteJSONL); err != nil {
					log.Printf("idxflow-server: writing events for %s: %v", t.Name(), err)
					continue
				}
				log.Printf("idxflow-server: %d events -> %s", rec.Len(), path)
			}
		})
	}
	if *traceOut != "" {
		srv.OnShutdown(func() {
			if err := profiling.WriteFile(*traceOut, cfg.Tracer.WriteChromeTrace); err != nil {
				log.Printf("idxflow-server: writing trace: %v", err)
				return
			}
			log.Printf("idxflow-server: %d spans -> %s", cfg.Tracer.Len(), *traceOut)
		})
	}
	log.Printf("idxflow-server listening on %s (%d workers, queue %d, fleet %d, strategy %s)",
		*addrF, *workers, *queue, *fleet, cfg.Strategy)
	return srv, *addrF, *drainF, nil
}
