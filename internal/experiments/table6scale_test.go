package experiments

import (
	"fmt"
	"testing"
)

// TestTable6ScaleShape runs the 100x-scale harness at a tiny scale: the
// timings are meaningless there, but every cross-check (scalar vs
// vectorized vs index signatures, exact group equality, the pre-audit)
// still gates the result.
func TestTable6ScaleShape(t *testing.T) {
	wallClockShape(t, func() (violated []string) {
		res, err := Table6Scale(0.002, 1, 16)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows == 0 {
			t.Fatal("no rows generated")
		}
		want := []string{"Select range (large)", "Select range (small)", "Lookup",
			"Order by", "Group by", "Join (hash)", "Join (sort-merge)"}
		if len(res.Table.Rows) != len(want) {
			t.Fatalf("table rows = %d, want %d", len(res.Table.Rows), len(want))
		}
		if _, ok := res.IndexSpeedups["Group by"]; ok {
			t.Error("Group by should have no index path")
		}
		for _, q := range want {
			if res.VecSpeedups[q] <= 0 {
				violated = append(violated, fmt.Sprintf("%s: vec speedup %v not positive", q, res.VecSpeedups[q]))
			}
		}
		for _, q := range []string{"Select range (large)", "Select range (small)", "Lookup", "Order by"} {
			if res.IndexSpeedups[q] <= 0 {
				violated = append(violated, fmt.Sprintf("%s: index speedup %v not positive", q, res.IndexSpeedups[q]))
			}
		}
		return violated
	})
}
