package experiments

// Wiring of the invariant auditor (internal/check, DESIGN.md §8) into the
// experiment layer: the paper's actual evaluation workloads — Montage,
// LIGO and CyberShake graphs from the §6.1 generator, at the scales the
// figures use — must satisfy the full catalog, planned and realized, not
// only the synthetic DAGs of the check package's own tests.

import (
	"testing"

	"idxflow/internal/check"
	"idxflow/internal/core"
	"idxflow/internal/provenance"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

func TestAuditPaperWorkloads(t *testing.T) {
	db, err := workload.NewFileDB(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := schedOptions()
	for _, app := range workload.Apps {
		gen := workload.NewGenerator(db, 7)
		g, _ := gen.Graph(app)
		if err := g.Validate(); err != nil {
			t.Fatalf("%v: generator graph invalid: %v", app, err)
		}
		skyline := sched.NewSkyline(opts).Schedule(g)
		if len(skyline) == 0 {
			t.Fatalf("%v: empty skyline", app)
		}
		if err := check.AuditFrontier(skyline); err != nil {
			t.Errorf("%v: frontier audit: %v", app, err)
		}
		for i, s := range skyline {
			res := sim.Execute(s, sim.Config{Pricing: opts.Pricing, Spec: opts.Spec})
			if err := check.Audit(res, s, check.AuditConfig{Exact: true}); err != nil {
				t.Errorf("%v schedule %d: %v", app, i, err)
			}
		}
	}
}

// TestAuditProvenancePhaseWorkload runs the §6.5.1 phase workload — the
// Fig. 12 setting, with runtime-estimate noise — through the full service
// with the flight recorder on, and requires the recorded decision chain
// to agree with the realized books (DESIGN.md §9 prov-* catalog).
func TestAuditProvenancePhaseWorkload(t *testing.T) {
	db, err := workload.NewFileDB(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Sched.MaxSkyline = 4
	cfg.RuntimeError = 0.2
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Provenance = provenance.NewRecorder(0)
	svc := core.NewService(cfg, db)

	gen := workload.NewGenerator(db, 3)
	horizon := float64(Horizon720) / 8
	m := svc.Run(gen.PhaseWorkload(horizon), horizon)
	if len(m.Results) == 0 {
		t.Fatal("phase workload executed no flows")
	}
	if cfg.Provenance.Dropped() > 0 {
		t.Fatalf("ring wrapped (%d dropped); grow the recorder", cfg.Provenance.Dropped())
	}
	if err := check.AuditProvenance(cfg.Provenance.Snapshot(), m); err != nil {
		t.Errorf("provenance audit: %v", err)
	}
}

// TestAuditScaledWorkloads runs the Fig. 12/14 scaling transform through
// the audit: scaling runtimes and data sizes must not break any invariant
// at any point of the grid the experiments sweep.
func TestAuditScaledWorkloads(t *testing.T) {
	db, err := workload.NewFileDB(2)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(db, 11)
	g, _ := gen.Graph(workload.Montage)
	opts := schedOptions()
	for _, timeScale := range []float64{0.25, 1, 4} {
		for _, dataScale := range []float64{0.5, 2} {
			scaled := scaleGraph(g, timeScale, dataScale)
			for i, s := range sched.NewSkyline(opts).Schedule(scaled) {
				if err := check.AuditSchedule(s); err != nil {
					t.Errorf("scale (%g, %g) schedule %d: %v", timeScale, dataScale, i, err)
				}
				res := sim.Execute(s, sim.Config{Pricing: opts.Pricing, Spec: opts.Spec})
				if err := check.Audit(res, s, check.AuditConfig{Exact: true}); err != nil {
					t.Errorf("scale (%g, %g) schedule %d replay: %v", timeScale, dataScale, i, err)
				}
			}
		}
	}
}
