package experiments

import (
	"fmt"
	"strings"
	"testing"

	"idxflow/internal/core"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", 3.0)
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "2.5", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	// trimFloat drops trailing zeros.
	if !strings.Contains(s, "x   3\n") && !strings.Contains(s, "3  ") {
		t.Errorf("float 3.0 not trimmed:\n%s", s)
	}
}

func TestParams(t *testing.T) {
	tab := Params()
	if len(tab.Rows) != 9 {
		t.Errorf("Table 3 has %d rows, want 9", len(tab.Rows))
	}
}

func TestTable4(t *testing.T) {
	tab := Table4(1, 3)
	if len(tab.Rows) != 6 { // measured + paper row per app
		t.Fatalf("Table 4 has %d rows, want 6", len(tab.Rows))
	}
}

func TestTable5Shape(t *testing.T) {
	tab := Table5()
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 5 has %d rows, want 4", len(tab.Rows))
	}
	if tab.Rows[0][0] != "comment" || tab.Rows[3][0] != "orderkey" {
		t.Errorf("row order: %v", tab.Rows)
	}
}

// wallClockShape is how the Table 6 shape test asserts orderings between
// wall-clock times of millisecond-scale queries: measure reports
// the orderings one fresh measurement violates, and the shape holds when any
// of up to three measurements violates none. One descheduled millisecond
// inverts a single measurement about once in 40 runs on an idle box, which
// says nothing about the code under test.
func wallClockShape(t *testing.T, measure func() (violated []string)) {
	t.Helper()
	const attempts = 3
	for i := 1; ; i++ {
		violated := measure()
		if len(violated) == 0 {
			return
		}
		if i == attempts {
			t.Errorf("in each of %d measurements an ordering failed; in the last: %s", attempts, strings.Join(violated, "; "))
			return
		}
		t.Logf("measurement %d: %s; measuring again", i, strings.Join(violated, "; "))
	}
}

// TestTable6ScaleShape checks the structure of Table 6 at a tiny scale: the
// timings are meaningless there, but every cross-check (scalar vs
// vectorized vs index signatures, exact group equality, the pre-audit)
// still gates the result, and every path must report a positive speedup.
func TestTable6ScaleShape(t *testing.T) {
	wallClockShape(t, func() (violated []string) {
		res, err := Table6(0.002, 1, 16)
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
			t.Fatal("Group by should have no index path")
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

// TestTable6Shape runs Table 6 at a small scale and checks the headline
// ordering of the paper's index speedups: order-by benefits least, point
// access most.
func TestTable6Shape(t *testing.T) {
	wallClockShape(t, func() (violated []string) {
		res, err := Table6(0.002, 1, 16)
		if err != nil {
			t.Fatal(err)
		}
		s := res.IndexSpeedups
		if !(s["Order by"] > 1) {
			violated = append(violated, fmt.Sprintf("order-by speedup = %.2f, want > 1", s["Order by"]))
		}
		if !(s["Lookup"] > s["Order by"]) {
			violated = append(violated, fmt.Sprintf("lookup (%.1f) should beat order-by (%.1f)", s["Lookup"], s["Order by"]))
		}
		if !(s["Select range (small)"] > s["Select range (large)"]) {
			violated = append(violated, fmt.Sprintf("small range (%.1f) should beat large range (%.1f)",
				s["Select range (small)"], s["Select range (large)"]))
		}
		return violated
	})
}

func TestFig3Shape(t *testing.T) {
	tab := Fig3()
	// Find g(B) at t=0 (negative) and at t=50 (positive).
	var g0, g50 string
	for _, r := range tab.Rows {
		if r[0] == "0" {
			g0 = r[2]
		}
		if r[0] == "50" {
			g50 = r[2]
		}
	}
	if !strings.HasPrefix(g0, "-") {
		t.Errorf("g(B,0) = %s, want negative", g0)
	}
	if strings.HasPrefix(g50, "-") {
		t.Errorf("g(B,50) = %s, want positive", g50)
	}
}

func TestFig6Shape(t *testing.T) {
	tab := Fig6(1, 2)
	if len(tab.Rows) != 7 {
		t.Fatalf("Fig 6 has %d rows, want 7", len(tab.Rows))
	}
	// Zero error => zero deviation.
	if tab.Rows[0][1] != "0" || tab.Rows[0][2] != "0" {
		t.Errorf("0%% error row = %v, want zero deviations", tab.Rows[0])
	}
}

func TestFig7Shape(t *testing.T) {
	res := Fig7(1, 1)
	if len(res.CPUSweep) != 4 || len(res.DataSweep) != 4 {
		t.Fatalf("sweep sizes: %d, %d", len(res.CPUSweep), len(res.DataSweep))
	}
	// Data-intensive at the largest scale: online must be clearly worse in
	// money than at data scale 1 (data placement matters).
	last := res.DataSweep[len(res.DataSweep)-1]
	if last.MoneyDiffPct <= 0 {
		t.Errorf("online money diff at 100x data = %.1f%%, want positive", last.MoneyDiffPct)
	}
}

func TestFig8Shape(t *testing.T) {
	res := Fig8(1)
	if res.MaxLP < res.MaxOnline {
		t.Errorf("LP max builds %d < online %d, want LP >= online", res.MaxLP, res.MaxOnline)
	}
	if res.MaxLP == 0 {
		t.Error("LP placed no builds")
	}
}

func TestFig9Shape(t *testing.T) {
	res := Fig9(1)
	if res.IdleAfter >= res.IdleBefore {
		t.Errorf("interleaving did not reduce idle time: %.2f -> %.2f", res.IdleBefore, res.IdleAfter)
	}
	if !strings.Contains(res.Timeline, "+") {
		t.Error("timeline shows no build ops")
	}
	if !strings.Contains(res.Timeline, "#") {
		t.Error("timeline shows no dataflow ops")
	}
}

func TestFig10And11Shape(t *testing.T) {
	in, tab := Fig10(1)
	if len(in.Slots) == 0 || len(in.Ops) < 15 {
		t.Fatalf("Fig 10 input: %d slots, %d ops (want >0, ~22)", len(in.Slots), len(in.Ops))
	}
	if len(tab.Rows) != len(in.Slots)+len(in.Ops) {
		t.Errorf("Fig 10 table rows = %d", len(tab.Rows))
	}
	res := Fig11(1)
	if res.Graham > res.UpperBound+1e-9 || res.LP > res.UpperBound+1e-9 {
		t.Errorf("bound violated: graham=%.3f lp=%.3f ub=%.3f", res.Graham, res.LP, res.UpperBound)
	}
	if res.LP < res.Graham-1e-9 {
		t.Errorf("LP (%.3f) below Graham (%.3f) on the paper-style input", res.LP, res.Graham)
	}
	if res.LP <= 0 {
		t.Error("LP gain is zero")
	}
}

// TestPhaseShortShape runs a shortened phase experiment and asserts the
// headline relations of Fig. 12.
func TestPhaseShortShape(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic experiment")
	}
	res := Phase(1, Horizon720/6) // 120 quanta
	noIdx := res.Metrics[core.NoIndex]
	gainM := res.Metrics[core.Gain]
	if gainM.FlowsFinished < noIdx.FlowsFinished {
		t.Errorf("gain finished %d < no-index %d", gainM.FlowsFinished, noIdx.FlowsFinished)
	}
	if noIdx.KilledOps != 0 {
		t.Errorf("no-index killed %d ops, want 0", noIdx.KilledOps)
	}
	if len(res.Finished.Rows) != 4 || len(res.Ops.Rows) != 4 {
		t.Errorf("table shapes: %d finished rows, %d ops rows", len(res.Finished.Rows), len(res.Ops.Rows))
	}
	if len(res.Adapt.Rows) == 0 {
		t.Error("no adaptation timeline")
	}
}

func TestRandomShortShape(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic experiment")
	}
	res := Random(1, Horizon720/6)
	noIdx := res.Metrics[core.NoIndex]
	gainM := res.Metrics[core.Gain]
	if gainM.FlowsFinished < noIdx.FlowsFinished {
		t.Errorf("gain finished %d < no-index %d", gainM.FlowsFinished, noIdx.FlowsFinished)
	}
}
