package experiments

import (
	"fmt"

	"idxflow/internal/cloud"
	"idxflow/internal/core"
	"idxflow/internal/workload"
)

// Ablations sweeps the design knobs DESIGN.md calls out — the time-money
// weight α, the fading controller D, the history window W, the
// interleaving algorithm, the skyline width, the heterogeneous pool and
// the §7 extensions — each on the same phase workload, reporting finished
// dataflows and cost per dataflow. horizon is in seconds; phases are
// scaled to fit it.
func Ablations(seed int64, horizon float64) *Table {
	t := &Table{
		Title:  "Ablations: Gain strategy under swept design knobs (phase workload)",
		Header: []string{"Knob", "Value", "Finished", "Cost/dataflow ($)", "Mean makespan (s)"},
	}

	// The sweep is a grid of independent runs: collect the cells first,
	// fan them out on the experiment pool, and append rows in grid order.
	type cell struct {
		knob, value string
		mutate      func(cfg *core.Config)
	}
	var cells []cell
	add := func(knob, value string, mutate func(cfg *core.Config)) {
		cells = append(cells, cell{knob, value, mutate})
	}

	add("baseline", "defaults", nil)
	for _, a := range []float64{0, 0.5, 1} {
		a := a
		add("alpha", fmt.Sprintf("%.1f", a), func(cfg *core.Config) { cfg.Gain.Alpha = a })
	}
	for _, d := range []float64{1, 10, 100} {
		d := d
		add("fading D", fmt.Sprintf("%g", d), func(cfg *core.Config) { cfg.Gain.FadeD = d })
	}
	for _, w := range []float64{2, 120, 0} {
		w := w
		label := fmt.Sprintf("%g", w)
		if w == 0 {
			label = "unbounded"
		}
		add("window W", label, func(cfg *core.Config) { cfg.Gain.WindowW = w })
	}
	add("interleaver", "online", func(cfg *core.Config) { cfg.Algo = core.OnlineInterleave })
	add("pool", "two-tier", func(cfg *core.Config) { cfg.Sched.Types = cloud.DefaultVMTypes() })
	add("extension", "dedicated-builds", func(cfg *core.Config) { cfg.AllowDedicatedBuilds = true })
	add("extension", "adaptive-fading", func(cfg *core.Config) { cfg.AdaptiveFading = true })
	add("extension", "batch-updates", func(cfg *core.Config) {
		cfg.UpdateEveryQuanta = 60
		cfg.UpdateFraction = 0.02
	})

	results := make([]core.Metrics, len(cells))
	runJobs(len(cells), func(i int) {
		db, err := workload.NewFileDB(seed)
		if err != nil {
			panic(err)
		}
		gen := workload.NewGenerator(db, seed+1)
		flows := gen.PhaseWorkload(workload.DefaultPhasesFor(horizon), 60)
		cfg := core.DefaultConfig()
		cfg.Sched.MaxSkyline = 4
		cfg.RuntimeError = 0.1
		if cells[i].mutate != nil {
			cells[i].mutate(&cfg)
		}
		results[i] = core.NewService(cfg, db).Run(flows, horizon)
	})
	for i, c := range cells {
		m := results[i]
		t.AddRow(c.knob, c.value, m.FlowsFinished, m.CostPerFlow, m.MeanMakespan)
	}

	t.Notes = append(t.Notes,
		"every row runs the full tuning loop on the same workload; only the named knob changes")
	return t
}
