// Package qaas turns the batch-oriented core.Service into a concurrent
// multi-tenant admission pipeline — the continuously running
// Query-as-a-Service facility of the paper's Fig. 1, serving many tenants
// at once instead of one Algorithm-1 pass at a time.
//
// Isolation model: every tenant owns its tuning state — gain history,
// index catalog, file database and provenance FlowID namespace — held in
// one tenant map behind one read-write lock, so one tenant's feedback never
// pollutes another's recommendations (the Schnaitter & Polyzotis
// semi-automatic tuning argument). Two resources stay global and strongly
// consistent: the container fleet (a counting semaphore with
// reserve/release audit trails, the only critical section concurrent
// admissions serialize on) and the money books (per-tenant settlements that
// must sum to the global ledger, provable by check.AuditQaaS).
//
// Flow of an admission: Submit runs on the submitter's goroutine. It
// reserves the tenant's fair share, joins the waiting count bounded by
// QueueDepth (backpressure: *BackpressureError carrying a Retry-After hint,
// surfaced by cmd/idxflow-server as HTTP 429), waits for one of Workers
// slot tokens, takes its tenant's lock and runs the Algorithm-1 pass via
// core.Service.SubmitCtx; the fleet semaphore books the chosen schedule's
// containers for the execution's (paced) duration. The pipeline starts no
// goroutine: the slots bound the passes running at once and the waiting
// count the submitters blocked for a slot. Drain stops new admissions and
// waits for the admitted ones before shutdown.
package qaas

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"idxflow/internal/core"
	"idxflow/internal/dataflow"
	"idxflow/internal/provenance"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// Defaults for the zero Config fields, which are also idxflow-server's
// flag defaults.
const (
	DefaultQueueDepth     = 256
	DefaultWorkers        = 8
	DefaultTenantInflight = 64
	DefaultFleet          = 64
	DefaultMaxTenants     = 256
)

// retryAfter is the backpressure hint returned with every rejection.
const retryAfter = time.Second

// MaxTenantNameLen bounds tenant identifiers; see ValidateTenantName.
const MaxTenantNameLen = 64

// ErrTenantName reports a tenant identifier that is empty, too long, or
// holds characters outside [A-Za-z0-9._-].
var ErrTenantName = errors.New("invalid tenant name")

// ErrTenantCapacity reports that MaxTenants distinct tenants already
// exist and no further one may be instantiated. Tenant names come from
// untrusted request input; without this cap a client could exhaust server
// memory by varying the tenant string.
var ErrTenantCapacity = errors.New("tenant capacity reached")

// ValidateTenantName enforces the tenant-identifier grammar: 1 to
// MaxTenantNameLen characters from [A-Za-z0-9._-]. Tenant names arrive in
// URLs, metric labels and per-tenant file suffixes, so the charset stays
// conservative.
func ValidateTenantName(name string) error {
	if name == "" || len(name) > MaxTenantNameLen {
		return fmt.Errorf("%w: must be 1..%d characters, got %d", ErrTenantName, MaxTenantNameLen, len(name))
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%w: byte %q not in [A-Za-z0-9._-]", ErrTenantName, c)
		}
	}
	return nil
}

// Config parameterizes the pipeline.
type Config struct {
	// Core is the per-tenant service template: every tenant gets a copy
	// with its own seed, provenance recorder and the pipeline's fleet
	// hook. Sched.MaxContainers is clamped to FleetContainers so no
	// single schedule can demand more slots than the fleet owns.
	// Core.Telemetry is shared by every tenant and the pipeline's own
	// families; nil means none. Core.PostExec, when set, observes every
	// tenant's executions (the server's audit mode hooks check.Audit
	// there), so it must be safe for concurrent use across passes.
	Core core.Config
	// Seed is the base workload seed; tenant t serves the deterministic
	// file database workload.NewFileDB(TenantSeed(Seed, t)), which load
	// generators reproduce client-side to craft valid dataflows.
	Seed int64
	// QueueDepth bounds the submitters waiting for a slot (default
	// DefaultQueueDepth); one more rejects with reason "queue-full".
	QueueDepth int
	// Workers is the number of slots, the Algorithm-1 passes that may run
	// at once (default DefaultWorkers). A pass holds its slot while it
	// waits on its tenant's lock, so under paced load it should exceed the
	// clients in flight per tenant.
	Workers int
	// TenantInflight is the per-tenant fair-share cap on waiting plus
	// executing admissions (default DefaultTenantInflight); exceeding it
	// rejects with reason "tenant-limit". Negative disables the cap.
	TenantInflight int
	// MaxTenants caps how many distinct tenants may be instantiated
	// (default DefaultMaxTenants); Tenant fails with ErrTenantCapacity
	// beyond it. Tenant names arrive from untrusted requests and each tenant holds a
	// full file database, service and provenance ring, so the cap bounds
	// the memory a hostile client can allocate. Negative disables it.
	MaxTenants int
	// FleetContainers is the global container fleet capacity shared by
	// all tenants (default DefaultFleet).
	FleetContainers int
	// PaceMSPerQuantum, when positive, makes each execution hold its
	// fleet reservation for that many wall-clock milliseconds per billing
	// quantum of realized makespan — modeling real container occupancy so
	// throughput experiments measure overlap, not just CPU time.
	PaceMSPerQuantum float64
	// ProvenanceCapacity is each tenant's flight-recorder ring size
	// (default provenance.DefaultCapacity): an upper bound, which the ring
	// grows towards as the tenant records events. Size it above the expected
	// events-per-tenant: a wrapped ring is unsound for AuditProvenance.
	ProvenanceCapacity int
}

// BackpressureError reports a rejected admission and how long the client
// should wait before retrying.
type BackpressureError struct {
	Reason     string // "queue-full", "tenant-limit" or "draining"
	RetryAfter time.Duration
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("admission rejected (%s), retry after %s", e.Reason, e.RetryAfter)
}

// Tenant is one isolated tuning domain: its own service (gain history,
// index catalog), file database, provenance namespace and fair-share
// counter. mu serializes Algorithm-1 passes within the tenant; different
// tenants run concurrently.
type Tenant struct {
	name string
	mu   sync.Mutex
	svc  *core.Service
	db   *workload.FileDB
	prov *provenance.Recorder
	// inflight counts waiting + executing admissions for the fair-share
	// cap; admitted counts completed ones.
	inflight atomic.Int64
	admitted atomic.Int64
}

type instruments struct {
	queueDepth    *telemetry.Gauge
	rejected      *telemetry.CounterVec
	tenantSettled *telemetry.GaugeVec
	latency       *telemetry.Histogram
	fleetInUse    *telemetry.Gauge
	tenantsGauge  *telemetry.Gauge
}

// Pipeline is the concurrent admission pipeline.
type Pipeline struct {
	cfg    Config
	fleet  *fleet
	ledger *ledger
	ins    instruments

	// tenantsMu guards tenants. A lookup takes the read side once per
	// submit; creating a tenant takes the write side, at most MaxTenants
	// times in the pipeline's life.
	tenantsMu sync.RWMutex
	tenants   map[string]*Tenant

	// drainMu gates admissions against drain: Submit holds the read
	// side around the draining check and pending.Add, Drain takes the
	// write side to flip the flag — so once Drain proceeds, no further
	// pending.Add can race its Wait.
	drainMu  sync.RWMutex
	draining bool
	pending  sync.WaitGroup

	// slots holds one token per running pass (capacity Workers); waiting
	// counts the submitters blocked for a token (at most QueueDepth).
	// Blocked senders on a channel are served in arrival order.
	slots   chan struct{}
	waiting atomic.Int64

	inFlight atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64

	// execOverride replaces the pass in unit tests that need controllable
	// timing without running the real tuner.
	execOverride func(t *Tenant, ctx context.Context, flow *dataflow.Flow) (core.FlowResult, error)
}

// New validates the configuration and returns the pipeline; it starts no
// goroutine. The returned pipeline accepts submissions until Drain.
func New(cfg Config) *Pipeline {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.TenantInflight == 0 {
		cfg.TenantInflight = DefaultTenantInflight
	}
	if cfg.MaxTenants == 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	if cfg.FleetContainers <= 0 {
		cfg.FleetContainers = DefaultFleet
	}
	if cfg.ProvenanceCapacity <= 0 {
		cfg.ProvenanceCapacity = provenance.DefaultCapacity
	}
	if cfg.Core.Sched.MaxContainers <= 0 ||
		cfg.Core.Sched.MaxContainers > cfg.FleetContainers {
		// No schedule may demand more containers than the fleet owns, or
		// its reservation could never be satisfied.
		cfg.Core.Sched.MaxContainers = cfg.FleetContainers
	}
	tel := cfg.Core.Telemetry
	quantum := cfg.Core.Sched.Pricing.QuantumSeconds
	if quantum <= 0 {
		quantum = 60
	}

	p := &Pipeline{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.Workers),
		ledger:  newLedger(),
		tenants: make(map[string]*Tenant),
	}
	p.ins = instruments{
		queueDepth: tel.Gauge("idxflow_qaas_queue_depth",
			"Admissions currently waiting for a slot."),
		rejected: tel.CounterVec("idxflow_qaas_rejected_total",
			"Admissions rejected with backpressure, by reason.", "reason"),
		tenantSettled: tel.GaugeVec("idxflow_qaas_tenant_settled_quanta",
			"Cumulative settled VM quanta per tenant.", "tenant"),
		latency: tel.Histogram("idxflow_qaas_admission_latency_seconds",
			"Wall-clock admission-to-completion latency of each admission that completed execution and settlement.",
			telemetry.ExponentialBuckets(0.0005, 2, 22)),
		fleetInUse: tel.Gauge("idxflow_qaas_fleet_in_use",
			"Container-fleet slots currently reserved by executions."),
		tenantsGauge: tel.Gauge("idxflow_qaas_tenants",
			"Tenants with instantiated service state."),
	}
	p.fleet = newFleet(cfg.FleetContainers, cfg.PaceMSPerQuantum, quantum, p.ins.fleetInUse)
	return p
}

// TenantSeed derives tenant t's deterministic workload seed from the base
// seed. Load generators use the same derivation client-side so the flows
// they craft reference exactly the files and potential indexes the
// server-side tenant database holds.
func TenantSeed(base int64, tenant string) int64 {
	h := fnv.New64a()
	h.Write([]byte(tenant))
	return base ^ int64(h.Sum64()&0x7fffffffffffffff)
}

// Tenant returns tenant name's state, instantiating it on first use under
// the tenant map's write lock. The name must pass ValidateTenantName, and
// creation beyond MaxTenants fails with ErrTenantCapacity — both guard
// against untrusted request input allocating unbounded per-tenant state.
func (p *Pipeline) Tenant(name string) (*Tenant, error) {
	if err := ValidateTenantName(name); err != nil {
		return nil, err
	}
	if t := p.Lookup(name); t != nil {
		return t, nil
	}
	p.tenantsMu.Lock()
	defer p.tenantsMu.Unlock()
	if t := p.tenants[name]; t != nil {
		return t, nil
	}
	if max := p.cfg.MaxTenants; max > 0 && len(p.tenants) >= max {
		return nil, fmt.Errorf("%w (max %d)", ErrTenantCapacity, max)
	}
	t, err := p.newTenant(name)
	if err != nil {
		return nil, err
	}
	p.tenants[name] = t
	p.ins.tenantsGauge.Add(1)
	return t, nil
}

// Lookup returns tenant name's state if it is already instantiated, nil
// otherwise. It never creates state, so read-only callers (state
// endpoints resolving untrusted tenant strings) cannot be abused to
// exhaust memory.
func (p *Pipeline) Lookup(name string) *Tenant {
	p.tenantsMu.RLock()
	defer p.tenantsMu.RUnlock()
	return p.tenants[name]
}

func (p *Pipeline) newTenant(name string) (*Tenant, error) {
	seed := TenantSeed(p.cfg.Seed, name)
	db, err := workload.NewFileDB(seed)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", name, err)
	}
	cfg := p.cfg.Core // value copy: per-tenant Sched/Gain state is isolated
	cfg.Seed = seed
	rec := provenance.NewRecorder(p.cfg.ProvenanceCapacity)
	cfg.Provenance = rec
	cfg.Reserve = p.fleet.reserve
	return &Tenant{name: name, svc: core.NewService(cfg, db), db: db, prov: rec}, nil
}

// Submit admits one dataflow for tenantName and runs its Algorithm-1 pass
// on the caller's goroutine once a slot is free. It returns ctx's error if
// ctx ends while it waits for the slot or during the pass. A
// *BackpressureError is returned without blocking when the pipeline is
// draining, the tenant is over its fair share, or QueueDepth submitters
// already wait.
func (p *Pipeline) Submit(ctx context.Context, tenantName string, flow *dataflow.Flow) (core.FlowResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t, err := p.Tenant(tenantName)
	if err != nil {
		return core.FlowResult{}, err
	}
	enq := time.Now()

	p.drainMu.RLock()
	if p.draining {
		p.drainMu.RUnlock()
		return core.FlowResult{}, p.reject("draining")
	}
	if cap := p.cfg.TenantInflight; cap > 0 {
		// Atomic reserve-then-check keeps the cap exact under
		// concurrent submissions for the same tenant.
		if t.inflight.Add(1) > int64(cap) {
			t.inflight.Add(-1)
			p.drainMu.RUnlock()
			return core.FlowResult{}, p.reject("tenant-limit")
		}
	} else {
		t.inflight.Add(1)
	}
	if p.waiting.Add(1) > int64(p.cfg.QueueDepth) {
		p.waiting.Add(-1)
		t.inflight.Add(-1)
		p.drainMu.RUnlock()
		return core.FlowResult{}, p.reject("queue-full")
	}
	p.pending.Add(1)
	p.drainMu.RUnlock()
	p.inFlight.Add(1)
	p.ins.queueDepth.Add(1)
	defer func() {
		t.inflight.Add(-1)
		p.inFlight.Add(-1)
		p.pending.Done()
	}()

	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		err = ctx.Err()
	}
	p.waiting.Add(-1)
	p.ins.queueDepth.Add(-1)
	if err != nil {
		return core.FlowResult{}, err
	}
	res, err := p.execute(t, ctx, flow)
	<-p.slots
	if err == nil {
		t.admitted.Add(1)
		p.admitted.Add(1)
		p.ins.latency.Observe(time.Since(enq).Seconds())
	}
	return res, err
}

func (p *Pipeline) reject(reason string) *BackpressureError {
	p.rejected.Add(1)
	p.ins.rejected.With(reason).Inc()
	return &BackpressureError{Reason: reason, RetryAfter: retryAfter}
}

// execute runs one pass: the tenant lock serializes Algorithm-1 passes
// within the tenant, the fleet hook (called inside SubmitCtx just before
// execution) serializes the global slot booking. A pass whose ctx ends
// settles nothing and returns ctx's error.
func (p *Pipeline) execute(t *Tenant, ctx context.Context, flow *dataflow.Flow) (core.FlowResult, error) {
	if p.execOverride != nil {
		return p.execOverride(t, ctx, flow)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	res := t.svc.SubmitCtx(ctx, flow)
	if res.Cancelled {
		err := ctx.Err()
		if err == nil {
			err = context.Canceled
		}
		return res, err
	}
	// Settle and publish the gauge while still holding the tenant lock:
	// released earlier, two consecutive completions for the same tenant
	// could apply their gauge Sets out of order and leave it stale at the
	// older (lower) total. Lock order is tenant → ledger; Report never
	// holds the ledger lock while taking a tenant's.
	total := p.ledger.settle(t.name, res.MoneyQuanta)
	p.ins.tenantSettled.With(t.name).Set(total)
	return res, nil
}

// QueueDepth reports the number of submitters waiting for a slot.
func (p *Pipeline) QueueDepth() int { return int(p.waiting.Load()) }

// Telemetry returns the registry shared by every tenant service and the
// pipeline's own instrument families: Config.Core.Telemetry, nil for none.
func (p *Pipeline) Telemetry() *telemetry.Registry { return p.cfg.Core.Telemetry }

// Name returns the tenant's identifier.
func (t *Tenant) Name() string { return t.name }

// Admitted returns the tenant's completed admission count.
func (t *Tenant) Admitted() int64 { return t.admitted.Load() }

// Recorder returns the tenant's provenance flight recorder (internally
// synchronized; no tenant lock needed for Snapshot).
func (t *Tenant) Recorder() *provenance.Recorder { return t.prov }

// Do runs fn with the tenant's service and database under the tenant
// lock, serialized against this tenant's Algorithm-1 passes. Read-only
// server endpoints (index listings, metrics, flow explanations) use it to
// get a consistent view; fn must not block on other tenants or the fleet.
func (t *Tenant) Do(fn func(svc *core.Service, db *workload.FileDB)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(t.svc, t.db)
}

// Drain stops new admissions (they reject with reason "draining") and
// waits for every admitted one to return from Submit. It returns early with
// ctx's error if they do not finish in time; the pipeline stays unusable
// either way. Every admission runs on its submitter's goroutine, so a
// timeout only means Drain stopped waiting; its one waiting goroutine ends
// when the last admission returns.
func (p *Pipeline) Drain(ctx context.Context) error {
	p.drainMu.Lock()
	p.draining = true
	p.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		p.pending.Wait()
		close(done)
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
