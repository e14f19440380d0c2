package check

import (
	"strings"
	"testing"

	"idxflow/internal/core"
	"idxflow/internal/qaas"
)

// balancedReport returns a minimal two-tenant snapshot whose books, fleet
// and per-tenant accounting all agree.
func balancedReport() qaas.Report {
	return qaas.Report{
		Tenants: []qaas.TenantReport{
			{Tenant: "a", Admitted: 2, Settled: 10, Metrics: core.Metrics{VMQuanta: 10}},
			{Tenant: "b", Admitted: 1, Settled: 5, Metrics: core.Metrics{VMQuanta: 5}},
		},
		Books: qaas.Books{Global: 15, ByTenant: map[string]float64{"a": 10, "b": 5}},
		Fleet: qaas.FleetStats{Capacity: 8, Peak: 8, Reserves: 3, Releases: 3},
	}
}

func TestAuditQaaSCleanReport(t *testing.T) {
	if err := AuditQaaS(balancedReport()); err != nil {
		t.Fatalf("balanced report flagged: %v", err)
	}
}

// The tamper table plants one corruption per case and requires the
// auditor to name it — the same self-test discipline as the §8 mutation
// suite, so a future refactor cannot silently blind an invariant.
func TestAuditQaaSTamperDetection(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*qaas.Report)
		wantInv string
	}{
		{
			name:    "inflated tenant settlement",
			mutate:  func(r *qaas.Report) { r.Tenants[0].Settled += 3 },
			wantInv: "qaas-tenant-books",
		},
		{
			name:    "global books drifted",
			mutate:  func(r *qaas.Report) { r.Books.Global += 1 },
			wantInv: "qaas-books-balance",
		},
		{
			name:    "tenant missing from ledger",
			mutate:  func(r *qaas.Report) { delete(r.Books.ByTenant, "b") },
			wantInv: "qaas-tenant-books",
		},
		{
			name:    "double-booked fleet slots",
			mutate:  func(r *qaas.Report) { r.Fleet.Peak = r.Fleet.Capacity + 1 },
			wantInv: "qaas-fleet",
		},
		{
			name:    "leaked reservation",
			mutate:  func(r *qaas.Report) { r.Fleet.Releases--; r.Fleet.InUse = 1 },
			wantInv: "qaas-fleet",
		},
		{
			name:    "non-quiescent snapshot",
			mutate:  func(r *qaas.Report) { r.InFlight = 2 },
			wantInv: "qaas-inflight",
		},
		{
			name:    "wrapped provenance ring",
			mutate:  func(r *qaas.Report) { r.Tenants[1].ProvenanceDropped = 7 },
			wantInv: "qaas-tenant-provenance",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := balancedReport()
			tc.mutate(&r)
			err := AuditQaaS(r)
			if err == nil {
				t.Fatalf("planted corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.wantInv) {
				t.Fatalf("auditor named the wrong invariant:\n%v\nwant %s", err, tc.wantInv)
			}
		})
	}
}

// TestExecAuditorHookAndTamper replays a clean scenario's frontier through
// the hook (all executions must audit clean), then feeds it a result with
// inflated money and requires the violation to be reported.
func TestExecAuditorHookAndTamper(t *testing.T) {
	sc := NewScenario(1, 0)
	results, skyline := execScenario(t, sc)
	a := &ExecAuditor{}
	for i, r := range results {
		a.Hook(skyline[i], r)
	}
	if got := a.Executions(); got != len(results) {
		t.Fatalf("Executions() = %d, want %d", got, len(results))
	}
	if err := a.Err(); err != nil {
		t.Fatalf("clean frontier audited dirty: %v", err)
	}

	bad := results[0]
	bad.MoneyQuanta += 7
	a.Hook(skyline[0], bad)
	err := a.Err()
	if err == nil {
		t.Fatal("inflated MoneyQuanta not reported")
	}
	if !strings.Contains(err.Error(), "qaas-exec-audit") {
		t.Fatalf("violation not named qaas-exec-audit: %v", err)
	}
	if got := a.Executions(); got != len(results)+1 {
		t.Fatalf("Executions() = %d after tamper, want %d", got, len(results)+1)
	}
}

// TestExecAuditorBoundsViolations feeds the hook 1,000 failing executions:
// it keeps the first maxExecViolations, counts the rest, and says how many
// it dropped at the end of Err.
func TestExecAuditorBoundsViolations(t *testing.T) {
	sc := NewScenario(1, 0)
	results, skyline := execScenario(t, sc)
	bad := results[0]
	bad.MoneyQuanta += 7
	a := &ExecAuditor{}
	const fed = 1000
	for i := 0; i < fed; i++ {
		a.Hook(skyline[0], bad)
	}
	if got := a.Executions(); got != fed {
		t.Fatalf("Executions() = %d, want %d", got, fed)
	}
	if got := len(a.violations); got != maxExecViolations {
		t.Fatalf("kept %d violations, want %d", got, maxExecViolations)
	}
	err := a.Err()
	if err == nil {
		t.Fatal("1,000 failed executions audited clean")
	}
	if want := "\n  and 936 more"; !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("Err() does not end with %q:\n%v", want, err)
	}
}
