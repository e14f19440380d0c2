package check

import (
	"slices"
	"testing"

	"idxflow/internal/core"
	"idxflow/internal/fault"
	"idxflow/internal/provenance"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// provService builds a service with an isolated registry and an enabled
// flight recorder large enough that no scenario wraps the ring.
func provService(t *testing.T, cfg core.Config, seed int64) (*core.Service, *provenance.Recorder, *workload.Generator) {
	t.Helper()
	db, err := workload.NewFileDB(seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Provenance = provenance.NewRecorder(0)
	cfg.Sched.MaxSkyline = 4
	cfg.Sched.MaxContainers = 20
	return core.NewService(cfg, db), cfg.Provenance, workload.NewGenerator(db, seed+1)
}

// auditRun runs the flows through the service, audits the event log
// against the realized metrics and returns the log.
func auditRun(t *testing.T, name string, cfg core.Config, seed int64, horizon float64) []provenance.Event {
	t.Helper()
	svc, rec, gen := provService(t, cfg, seed)
	m := svc.Run(gen.RandomWorkload(horizon/2), horizon)
	if len(m.Results) == 0 {
		t.Fatalf("%s: no flows executed", name)
	}
	if rec.Dropped() > 0 {
		t.Fatalf("%s: ring wrapped (%d dropped); grow the recorder", name, rec.Dropped())
	}
	events := rec.Snapshot()
	if err := AuditProvenance(events, m); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	return events
}

func TestAuditProvenanceStrategies(t *testing.T) {
	for _, strat := range []core.Strategy{core.NoIndex, core.RandomIndex, core.GainNoDelete, core.Gain} {
		cfg := core.DefaultConfig()
		cfg.Strategy = strat
		auditRun(t, strat.String(), cfg, 1, 3000)
	}
}

func TestAuditProvenanceOnlineInterleave(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Algo = core.OnlineInterleave
	auditRun(t, "online", cfg, 3, 3000)
}

func TestAuditProvenanceFaultedRuns(t *testing.T) {
	// The money/build agreement must hold when faults kill builds and waste
	// quanta mid-execution (§6.4-style injection).
	for _, rate := range []float64{0.02, 0.1} {
		cfg := core.DefaultConfig()
		horizon := 4000.0
		cfg.Faults = fault.Generate(rate, 60, horizon, 42)
		svc, rec, gen := provService(t, cfg, 2)
		m := svc.Run(gen.RandomWorkload(horizon/2), horizon)
		if rec.Dropped() > 0 {
			t.Fatalf("rate %g: ring wrapped", rate)
		}
		if err := AuditProvenance(rec.Snapshot(), m); err != nil {
			t.Errorf("rate %g: %v", rate, err)
		}
		if m.FaultsInjected > 0 {
			// The log must carry the injections the metrics counted.
			injected := 0
			for _, e := range rec.Snapshot() {
				if e.Kind == provenance.KindFaultInjected {
					injected++
				}
			}
			if injected == 0 {
				t.Errorf("rate %g: metrics count %d faults but log has none", rate, m.FaultsInjected)
			}
		}
	}
}

func TestAuditProvenanceBatchUpdates(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.UpdateEveryQuanta = 5
	events := auditRun(t, "batch-updates", cfg, 4, 3000)
	if !slices.ContainsFunc(events, func(e provenance.Event) bool { return e.Kind == provenance.KindIndexInvalidated }) {
		t.Error("no batch update invalidated an index partition; the audit does not cover invalidations")
	}
}

func TestAuditProvenanceRuntimeError(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.RuntimeError = 0.2
	auditRun(t, "runtime-error", cfg, 5, 3000)
}

func TestAuditProvenanceDetectsTampering(t *testing.T) {
	cfg := core.DefaultConfig()
	svc, rec, gen := provService(t, cfg, 1)
	m := svc.Run(gen.RandomWorkload(1200), 2400)
	events := rec.Snapshot()
	if err := AuditProvenance(events, m); err != nil {
		t.Fatalf("clean run should audit clean: %v", err)
	}

	mutate := func(f func(evs []provenance.Event) []provenance.Event) error {
		evs := append([]provenance.Event(nil), events...)
		return AuditProvenance(f(evs), m)
	}

	if err := mutate(func(evs []provenance.Event) []provenance.Event {
		for i := range evs {
			if evs[i].Kind == provenance.KindMoneySettled {
				evs[i].MoneyQuanta += 1 // charge that never happened
				break
			}
		}
		return evs
	}); err == nil {
		t.Error("inflated settlement not detected")
	}

	if err := mutate(func(evs []provenance.Event) []provenance.Event {
		return evs[1:] // drop the first admission
	}); err == nil {
		t.Error("truncated log not detected")
	}

	if err := mutate(func(evs []provenance.Event) []provenance.Event {
		for i := range evs {
			if evs[i].Kind == provenance.KindIndexAdopted {
				evs[i].TimeGain = -1 // adoption without a positive gain
				break
			}
		}
		return evs
	}); err == nil {
		// Only meaningful when the run adopted something; the gain runs do.
		adopted := false
		for _, e := range events {
			if e.Kind == provenance.KindIndexAdopted {
				adopted = true
				break
			}
		}
		if adopted {
			t.Error("negative-gain adoption not detected")
		}
	}

	if err := mutate(func(evs []provenance.Event) []provenance.Event {
		for i := range evs {
			if evs[i].Kind == provenance.KindFlowScheduled {
				// Plant a dominating alternative the scheduler "ignored".
				evs[i].Alts = append(evs[i].Alts, provenance.ParetoPoint{
					Makespan:    evs[i].Makespan - 1,
					MoneyQuanta: evs[i].MoneyQuanta - 1,
				})
				break
			}
		}
		return evs
	}); err == nil {
		t.Error("dominated skyline choice not detected")
	}
}
