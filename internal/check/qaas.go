package check

import (
	"fmt"
	"math"
	"sync"

	"idxflow/internal/qaas"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
)

// AuditQaaS verifies the cross-tenant accounting invariants of a
// concurrent QaaS pipeline snapshot:
//
//   - qaas-inflight: the snapshot is quiescent — the fleet/books equalities
//     below are only exact when no admission is queued or executing, so a
//     non-zero InFlight is itself reported rather than silently tolerated.
//   - qaas-books-balance: per-tenant ledger settlements sum to the global
//     money books exactly (one lock guards both, so not even float slack
//     is allowed beyond association order).
//   - qaas-tenant-books: each tenant's ledger total equals the VM quanta
//     its own service accumulated — the concurrent settlement path neither
//     lost nor double-counted an execution.
//   - qaas-fleet: container slots were never double-booked (peak occupancy
//     within capacity) and every reservation was released.
//   - qaas-tenant-provenance: each tenant's flight-recorder log passes
//     AuditProvenance against that tenant's aggregates — per-tenant FlowID
//     namespaces stayed isolated under interleaving. A wrapped ring is
//     reported as unsound instead of audited.
//
// Callers should Drain the pipeline (or otherwise reach InFlight == 0)
// before snapshotting.
func AuditQaaS(r qaas.Report) error {
	rep := &Report{}

	if r.InFlight != 0 {
		rep.addf("qaas-inflight",
			"%d admissions still in flight; books and fleet cannot be balanced exactly", r.InFlight)
	}

	var sum float64
	for _, tr := range r.Tenants {
		sum += tr.Settled
	}
	if math.Abs(sum-r.Books.Global) > looseEps {
		rep.addf("qaas-books-balance",
			"per-tenant settlements sum to %g, global books say %g (diff %g)",
			sum, r.Books.Global, sum-r.Books.Global)
	}

	for _, tr := range r.Tenants {
		if math.Abs(tr.Settled-tr.Metrics.VMQuanta) > looseEps {
			rep.addf("qaas-tenant-books",
				"tenant %s: ledger settled %g quanta, service books %g",
				tr.Tenant, tr.Settled, tr.Metrics.VMQuanta)
		}
		if lb, ok := r.Books.ByTenant[tr.Tenant]; !ok && tr.Settled != 0 {
			rep.addf("qaas-tenant-books",
				"tenant %s settled %g but is missing from the global ledger",
				tr.Tenant, tr.Settled)
		} else if ok && math.Abs(lb-tr.Settled) > looseEps {
			rep.addf("qaas-tenant-books",
				"tenant %s: report settled %g disagrees with ledger entry %g",
				tr.Tenant, tr.Settled, lb)
		}
	}

	f := r.Fleet
	if f.Peak > f.Capacity {
		rep.addf("qaas-fleet",
			"peak fleet occupancy %d exceeds capacity %d (double-booked slots)",
			f.Peak, f.Capacity)
	}
	if r.InFlight == 0 {
		if f.Reserves != f.Releases {
			rep.addf("qaas-fleet",
				"quiescent pipeline with %d reserves but %d releases", f.Reserves, f.Releases)
		}
		if f.InUse != 0 {
			rep.addf("qaas-fleet",
				"quiescent pipeline still holds %d fleet slots", f.InUse)
		}
	}

	for _, tr := range r.Tenants {
		if tr.ProvenanceDropped > 0 {
			rep.addf("qaas-tenant-provenance",
				"tenant %s: flight-recorder ring dropped %d events; log is unsound — raise ProvenanceCapacity",
				tr.Tenant, tr.ProvenanceDropped)
			continue
		}
		if len(tr.Events) == 0 && tr.Metrics.FlowsFinished == 0 {
			continue
		}
		if err := AuditProvenance(tr.Events, tr.Metrics); err != nil {
			rep.addf("qaas-tenant-provenance", "tenant %s: %v", tr.Tenant, err)
		}
	}

	return rep.Err()
}

// maxExecViolations bounds the failed executions an ExecAuditor keeps: the
// first ones name the cause, and a server audits every execution for as
// long as it runs.
const maxExecViolations = 64

// ExecAuditor is a thread-safe core.Config.PostExec hook that runs the
// full cross-layer Audit on every execution a QaaS worker completes, so
// interleaved admissions get the same §3 scrutiny batch runs get in tests.
// Every execution is audited as an exact replay (planned equals realized),
// so the pipeline it watches must run without a fault plan or a runtime
// error model. Wire Hook into qaas.Config.PostExec and read Err after
// draining.
type ExecAuditor struct {
	mu         sync.Mutex
	executions int
	violations []Violation // the first maxExecViolations failures
	dropped    int         // failures past those
}

// Hook is the PostExec callback: it audits one completed execution
// against the schedule it replayed and collects any violations.
func (a *ExecAuditor) Hook(chosen *sched.Schedule, run sim.Result) {
	err := Audit(run, chosen, AuditConfig{Exact: true})
	a.mu.Lock()
	defer a.mu.Unlock()
	a.executions++
	switch {
	case err == nil:
	case len(a.violations) < maxExecViolations:
		a.violations = append(a.violations, Violation{
			Name:   "qaas-exec-audit",
			Detail: err.Error(),
		})
	default:
		a.dropped++
	}
}

// Executions reports how many executions the auditor has seen.
func (a *ExecAuditor) Executions() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.executions
}

// Err returns nil when every audited execution was clean, otherwise an
// error listing the first failed executions' violations and ending with
// how many more failed.
func (a *ExecAuditor) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := &Report{Violations: a.violations}
	err := r.Err()
	if a.dropped > 0 {
		err = fmt.Errorf("%w\n  and %d more", err, a.dropped)
	}
	return err
}
