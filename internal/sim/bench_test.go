package sim

import (
	"testing"

	"idxflow/internal/cloud"
	"idxflow/internal/telemetry"
)

var benchResult Result

// BenchmarkExecute replays one Cybershake schedule with index builds packed
// into its idle slots on one executor bound to a registry, as a tenant's
// service does on every submit. After the first run the scratch arena, the
// publication buffers and the label handles are the executor's, so what a
// run allocates is its Result and its fault-handling closures, the same
// count at every -cpu.
func BenchmarkExecute(b *testing.B) {
	s := goldenSchedule(b, 7, 0, true)
	ex := New(Config{Pricing: cloud.DefaultPricing(), Spec: cloud.DefaultSpec(), Metrics: telemetry.NewRegistry()})
	ex.Execute(nil, s, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = ex.Execute(nil, s, nil)
	}
}
