// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6). Each benchmark runs the corresponding experiment end to end; the
// printed rows come from cmd/idxflow-experiments, these measure the cost of
// regenerating them. Ablation benchmarks at the bottom sweep the design
// knobs DESIGN.md calls out (alpha, fading D, window W, interleaving
// algorithm, skyline tie-break).
package idxflow_test

import (
	"fmt"
	"testing"

	"idxflow/internal/cloud"
	"idxflow/internal/core"
	"idxflow/internal/experiments"
	"idxflow/internal/workload"
)

// BenchmarkTable4Workloads regenerates the dataflow statistics of Table 4.
func BenchmarkTable4Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table4(1, 3)
	}
}

// BenchmarkTable5IndexSizes regenerates the lineitem index sizes of Table 5.
func BenchmarkTable5IndexSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table5()
	}
}

// BenchmarkTable6ScaleSpeedups runs Table 6 end to end at a reduced scale:
// streamed load into row and columnar disk tables, out-of-core index
// builds, the equivalence pre-audit and all seven cross-checked queries.
// The name predates the merge of the Table 6 experiments; the ledger
// compares it with its own earlier entries.
func BenchmarkTable6ScaleSpeedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(0.005, 1, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3GainCurve regenerates the worked gain-over-time example.
func BenchmarkFig3GainCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3()
	}
}

// BenchmarkFig6Robustness regenerates the estimation-error sensitivity
// sweep of Fig. 6.
func BenchmarkFig6Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(1, 2)
	}
}

// BenchmarkFig7Schedulers regenerates the online vs offline scheduler
// comparison of Fig. 7.
func BenchmarkFig7Schedulers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(1, 1)
	}
}

// BenchmarkFig8Interleaving regenerates the LP vs online interleaving
// comparison of Fig. 8.
func BenchmarkFig8Interleaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(1)
	}
}

// BenchmarkFig9Timeline regenerates the interleaved Montage timeline.
func BenchmarkFig9Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(1)
	}
}

// BenchmarkFig11Knapsack regenerates the Graham vs LP vs upper-bound
// comparison on the Fig. 10 input.
func BenchmarkFig11Knapsack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11(1)
	}
}

// dynamicHorizon keeps the dynamic-workload benchmarks tractable: 120
// quanta instead of the paper's 720. cmd/idxflow-experiments runs the full
// horizon.
const dynamicHorizon = 120 * 60

// BenchmarkFig12PhaseWorkload regenerates the phase-workload strategy
// comparison (Fig. 12, Table 7, Fig. 13) at a reduced horizon.
func BenchmarkFig12PhaseWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Phase(1, dynamicHorizon)
	}
}

// BenchmarkFig14RandomWorkload regenerates the random-workload strategy
// comparison (Fig. 14) at a reduced horizon.
func BenchmarkFig14RandomWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Random(1, dynamicHorizon)
	}
}

// runGain executes a Gain-strategy phase run with the given config tweak
// and reports throughput and cost as benchmark metrics.
func runGain(b *testing.B, mutate func(cfg *core.Config)) {
	b.Helper()
	var finished int
	var cost float64
	for i := 0; i < b.N; i++ {
		db, err := workload.NewFileDB(1)
		if err != nil {
			b.Fatal(err)
		}
		gen := workload.NewGenerator(db, 2)
		flows := gen.PhaseWorkload(dynamicHorizon)
		cfg := core.DefaultConfig()
		cfg.Sched.MaxSkyline = 4
		cfg.RuntimeError = 0.1
		if mutate != nil {
			mutate(&cfg)
		}
		m := core.NewService(cfg, db).Run(flows, dynamicHorizon)
		finished = m.FlowsFinished
		cost = m.CostPerFlow
	}
	b.ReportMetric(float64(finished), "dataflows")
	b.ReportMetric(cost, "$/dataflow")
}

// BenchmarkAblationAlpha sweeps the time-money weight alpha of Eq. 1.
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			runGain(b, func(cfg *core.Config) { cfg.Gain.Alpha = alpha })
		})
	}
}

// BenchmarkAblationFadingD sweeps the gain fading controller D of §4.
func BenchmarkAblationFadingD(b *testing.B) {
	for _, d := range []float64{1, 3, 10, 30, 100} {
		b.Run(fmt.Sprintf("D=%g", d), func(b *testing.B) {
			runGain(b, func(cfg *core.Config) { cfg.Gain.FadeD = d })
		})
	}
}

// BenchmarkAblationWindow sweeps the history window W of §4.
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []float64{2, 20, 60, 120, 0} { // 0 = unbounded
		b.Run(fmt.Sprintf("W=%g", w), func(b *testing.B) {
			runGain(b, func(cfg *core.Config) { cfg.Gain.WindowW = w })
		})
	}
}

// BenchmarkAblationInterleaver compares the LP and online interleaving
// algorithms inside the full tuning loop.
func BenchmarkAblationInterleaver(b *testing.B) {
	for _, algo := range []core.Interleaving{core.LPInterleave, core.OnlineInterleave} {
		name := "lp"
		if algo == core.OnlineInterleave {
			name = "online"
		}
		b.Run(name, func(b *testing.B) {
			runGain(b, func(cfg *core.Config) { cfg.Algo = algo })
		})
	}
}

// BenchmarkAblationSkylineWidth sweeps the skyline cap: wider frontiers
// cost scheduling time but offer more interleaving choices.
func BenchmarkAblationSkylineWidth(b *testing.B) {
	for _, w := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("k=%d", w), func(b *testing.B) {
			runGain(b, func(cfg *core.Config) { cfg.Sched.MaxSkyline = w })
		})
	}
}

// BenchmarkAblationHeterogeneous compares the homogeneous Table 3 pool with
// the two-tier heterogeneous pool (the §7 future-work scenario).
func BenchmarkAblationHeterogeneous(b *testing.B) {
	for _, hetero := range []bool{false, true} {
		name := "homogeneous"
		if hetero {
			name = "two-tier"
		}
		b.Run(name, func(b *testing.B) {
			runGain(b, func(cfg *core.Config) {
				if hetero {
					cfg.Sched.Types = cloud.DefaultVMTypes()
				}
			})
		})
	}
}

// BenchmarkAblationExtensions toggles the §7 extensions: dedicated delayed
// builds and the adaptive fading controller.
func BenchmarkAblationExtensions(b *testing.B) {
	cases := map[string]func(cfg *core.Config){
		"baseline":  nil,
		"dedicated": func(cfg *core.Config) { cfg.AllowDedicatedBuilds = true },
		"adaptive":  func(cfg *core.Config) { cfg.AdaptiveFading = true },
	}
	for _, name := range []string{"baseline", "dedicated", "adaptive"} {
		b.Run(name, func(b *testing.B) {
			runGain(b, cases[name])
		})
	}
}
