package sim

import (
	"testing"

	"idxflow/internal/cloud"
	"idxflow/internal/fault"
)

var benchResult Result

// BenchmarkExecute replays one Cybershake schedule with index builds packed
// into its idle slots on one executor, as a tenant's service does on every
// submit. After the first run the scratch arena and the event buffer are
// the executor's, so what a run allocates is its Result's operator table
// and the sort of its assignments, the same count at every -cpu.
func BenchmarkExecute(b *testing.B) {
	benchmarkExecute(b, nil)
}

// BenchmarkExecuteFaulty replays BenchmarkExecute's schedule under a
// generated plan that crashes, revokes, slows and fails storage on its
// containers, so what a faulty replay allocates beyond a fault-free one is
// in the ledger too: the container rows' timelines and re-placed
// intervals and Repair's results; the repaired copy of the schedule is the
// executor's, reused across runs.
func BenchmarkExecuteFaulty(b *testing.B) {
	plan := fault.Generate(0.5, 60, 1200, 1)
	benchmarkExecute(b, plan.From(0))
}

func benchmarkExecute(b *testing.B, faults []fault.Event) {
	s := goldenSchedule(b, 7, 0, true)
	ex := New(Config{Pricing: cloud.DefaultPricing(), Spec: cloud.DefaultSpec()})
	if res := ex.Execute(nil, s, faults); len(faults) > 0 && res.FaultsInjected == 0 {
		b.Fatal("the plan hit nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = ex.Execute(nil, s, faults)
	}
}
