package experiments

import (
	"fmt"
	"testing"
)

func TestTable6DiskShape(t *testing.T) {
	wallClockShape(t, func() (violated []string) {
		res, err := Table6Disk(0.003, 1, 16)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Speedups
		if !(s["Lookup"] > 1 && s["Select range (small)"] > 1) {
			violated = append(violated, fmt.Sprintf("speedups not > 1: %+v", s))
		}
		if !(s["Lookup"] > s["Order by"]) {
			violated = append(violated, fmt.Sprintf("lookup (%.1f) should beat order-by (%.1f)", s["Lookup"], s["Order by"]))
		}
		return violated
	})
}
