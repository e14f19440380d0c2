package qaas

import (
	"sort"

	"idxflow/internal/core"
	"idxflow/internal/provenance"
	"idxflow/internal/sched"
)

// FleetStats snapshots the container-fleet semaphore's audit trail.
type FleetStats struct {
	Capacity int   `json:"capacity"`
	InUse    int   `json:"in_use"`
	Peak     int   `json:"peak"`
	Reserves int64 `json:"reserves"`
	Releases int64 `json:"releases"`
}

// Books snapshots the global money ledger.
type Books struct {
	Global   float64            `json:"global_quanta"`
	ByTenant map[string]float64 `json:"by_tenant_quanta"`
}

// TenantReport is one tenant's consistent snapshot: service aggregates,
// ledger settlement and (in a Report, not a Summary) the full provenance
// log, all taken under the tenant lock so they agree with each other. The
// JSON view (served at /v1/qaas) carries only the scalar summary; Metrics
// and Events are in-process audit inputs — per-flow results and event logs
// would dwarf the response at load-test scale.
type TenantReport struct {
	Tenant string `json:"tenant"`
	// Admitted counts completed admissions for this tenant.
	Admitted int64 `json:"admitted"`
	// Settled is the tenant's total from the global ledger, in quanta.
	Settled float64 `json:"settled_quanta"`
	// FlowsFinished, VMQuanta and MeanMakespan mirror the same fields of
	// Metrics for JSON consumers.
	FlowsFinished int     `json:"flows_finished"`
	VMQuanta      float64 `json:"vm_quanta"`
	MeanMakespan  float64 `json:"mean_makespan_seconds"`
	// Metrics is core.Service.Aggregates() — its VMQuanta must equal
	// Settled (check.AuditQaaS invariant qaas-tenant-books).
	Metrics core.Metrics `json:"-"`
	// Events is the tenant's provenance log, for check.AuditProvenance;
	// nil in a Summary.
	Events []provenance.Event `json:"-"`
	// ProvenanceDropped reports ring overwrites; non-zero means the
	// per-tenant log wrapped and is unsound for auditing.
	ProvenanceDropped uint64 `json:"provenance_dropped"`
	// ProvenanceEvents of ProvenanceCapacity ring slots are held: how far
	// the tenant is from the wrap that makes /debug/audit refuse its log.
	ProvenanceEvents   int `json:"provenance_events"`
	ProvenanceCapacity int `json:"provenance_capacity"`
	// Warm snapshots the tenant scheduler's warm-start counters.
	Warm sched.WarmStats `json:"warm"`
}

// WarmSummary aggregates every tenant's warm-start counters.
type WarmSummary struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// Report is a pipeline-wide snapshot for auditing and the /v1/qaas
// endpoint.
type Report struct {
	Tenants []TenantReport `json:"tenants"`
	Fleet   FleetStats     `json:"fleet"`
	Books   Books          `json:"books"`
	// InFlight counts admissions queued or executing at snapshot time;
	// the fleet/books invariants are only exact when it is zero.
	InFlight int64 `json:"in_flight"`
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	// QueueDepth is the queued (not yet executing) admission count.
	QueueDepth int `json:"queue_depth"`
	// Warm aggregates the tenants' warm-start scheduler counters.
	Warm WarmSummary `json:"warm"`
}

// Tenants returns every instantiated tenant, sorted by name.
func (p *Pipeline) Tenants() []*Tenant {
	p.tenantsMu.RLock()
	out := make([]*Tenant, 0, len(p.tenants))
	for _, t := range p.tenants {
		out = append(out, t)
	}
	p.tenantsMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Report snapshots every tenant (sorted by name), the fleet and the books.
// Each tenant's aggregates and provenance log are captured under its lock,
// so a concurrently executing admission is either fully in or fully out of
// its tenant's snapshot; use InFlight to tell whether the global books can
// be balanced exactly. It copies every tenant's event log: it is the
// auditors' input (check.AuditQaaS, /debug/audit), not a status poll.
func (p *Pipeline) Report() Report { return p.snapshot(true) }

// Summary is Report without the event logs (TenantReport.Events stays
// nil): every scalar /v1/qaas serves, at a cost independent of how many
// events the tenants hold.
func (p *Pipeline) Summary() Report { return p.snapshot(false) }

func (p *Pipeline) snapshot(withEvents bool) Report {
	tenants := p.Tenants()
	books := p.ledger.books()
	r := Report{
		Fleet:      p.fleet.stats(),
		Books:      books,
		InFlight:   p.inFlight.Load(),
		Admitted:   p.admitted.Load(),
		Rejected:   p.rejected.Load(),
		QueueDepth: len(p.queue),
	}
	for _, t := range tenants {
		n := t.name
		t.mu.Lock()
		m := t.svc.Aggregates()
		var ev []provenance.Event
		if withEvents {
			ev = t.prov.Snapshot()
		}
		held, dropped := t.prov.Len(), t.prov.Dropped()
		warm := t.svc.WarmStats()
		t.mu.Unlock()
		r.Tenants = append(r.Tenants, TenantReport{
			Tenant:             n,
			Admitted:           t.admitted.Load(),
			Settled:            books.ByTenant[n],
			FlowsFinished:      m.FlowsFinished,
			VMQuanta:           m.VMQuanta,
			MeanMakespan:       m.MeanMakespan,
			Metrics:            m,
			Events:             ev,
			ProvenanceDropped:  dropped,
			ProvenanceEvents:   held,
			ProvenanceCapacity: t.prov.Cap(),
			Warm:               warm,
		})
		r.Warm.Hits += warm.Hits
		r.Warm.Misses += warm.Misses
	}
	if total := r.Warm.Hits + r.Warm.Misses; total > 0 {
		r.Warm.HitRate = float64(r.Warm.Hits) / float64(total)
	}
	return r
}
