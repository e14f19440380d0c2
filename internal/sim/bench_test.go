package sim

import (
	"testing"

	"idxflow/internal/cloud"
)

var benchResult Result

// BenchmarkExecute replays one Cybershake schedule with index builds packed
// into its idle slots on one executor, as a tenant's service does on every
// submit. After the first run the scratch arena and the event buffer are
// the executor's, so what a run allocates is its Result and its
// fault-handling closures, the same count at every -cpu.
func BenchmarkExecute(b *testing.B) {
	s := goldenSchedule(b, 7, 0, true)
	ex := New(Config{Pricing: cloud.DefaultPricing(), Spec: cloud.DefaultSpec()})
	ex.Execute(nil, s, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = ex.Execute(nil, s, nil)
	}
}
