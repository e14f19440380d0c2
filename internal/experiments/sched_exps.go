package experiments

import (
	"math"
	"math/rand"
	"strconv"

	"idxflow/internal/dataflow"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// schedOptions is the scheduler configuration shared by the §6.2-6.4
// experiments.
func schedOptions() sched.Options {
	o := sched.DefaultOptions()
	o.MaxSkyline = 8
	return o
}

// scaleGraph returns a copy of g with operator runtimes multiplied by
// timeScale and edge sizes by dataScale.
func scaleGraph(g *dataflow.Graph, timeScale, dataScale float64) *dataflow.Graph {
	out := dataflow.New()
	ids := g.Ops()
	remap := make(map[dataflow.OpID]dataflow.OpID, len(ids))
	for _, id := range ids {
		op := *g.Op(id)
		op.Time *= timeScale
		remap[id] = out.Add(op)
	}
	for _, id := range ids {
		for _, e := range g.Out(id) {
			if err := out.Connect(remap[e.From], remap[e.To], e.Size*dataScale); err != nil {
				panic(err)
			}
		}
	}
	return out
}

// Fig6 measures the offline (skyline) scheduler's sensitivity to estimation
// errors: schedules are planned with the estimated runtimes and data sizes,
// then executed with values perturbed uniformly within the given error
// percentage; the table reports the mean absolute deviation of realized
// time, money and fragmentation from the plan.
//
// Every (error %, trial) Monte-Carlo replication is an independent job on
// the bounded experiment pool: it builds its own workload generator
// (seeded per trial, so a trial means the same flow at every error level
// and different trials are distinct samples), draws perturbations from a
// per-cell seeded rng, and replays on its own executor into an isolated
// registry, so replications are order-independent and the table is deterministic
// for a given (seed, trials) at any parallelism.
func Fig6(seed int64, trials int) *Table {
	errPcts := []float64{0, 10, 20, 40, 60, 80, 100}
	opts := schedOptions()
	// The file database is immutable once built, so the cells share it;
	// each cell still gets its own generator (private rng state).
	db, err := workload.NewFileDB(seed)
	if err != nil {
		panic(err)
	}
	type fig6Cell struct{ dT, dM, dF float64 }
	cells := make([]fig6Cell, len(errPcts)*trials)
	runJobs(len(cells), func(i int) {
		row, trial := i/trials, i%trials
		gen := workload.NewGenerator(db, seed+1+int64(trial))
		flow := gen.Flow(workload.Cybershake, trial, 0)
		s := sched.Fastest(sched.NewSkyline(opts).Schedule(flow.Graph))
		if s == nil {
			return
		}
		e := errPcts[row] / 100
		rng := rand.New(rand.NewSource(seed + 2 + int64(i)))
		run := sim.New(sim.Config{
			Pricing: opts.Pricing,
			Spec:    opts.Spec,
			Metrics: telemetry.NewRegistry(),
			Actual: func(op *dataflow.Operator) float64 {
				return op.Time * (1 + (rng.Float64()*2-1)*e)
			},
		}).Execute(nil, s, nil)
		cells[i] = fig6Cell{
			dT: pctDiff(run.Makespan, s.Makespan()),
			dM: pctDiff(run.MoneyQuanta, s.MoneyQuanta()),
			dF: pctDiff(run.Fragmentation, s.Fragmentation()),
		}
	})

	t := &Table{
		Title:  "Fig 6: Offline scheduler sensitivity to estimation errors",
		Header: []string{"Error %", "Time diff %", "Money diff %", "Fragmentation diff %"},
	}
	for row, errPct := range errPcts {
		var dT, dM, dF float64
		for trial := 0; trial < trials; trial++ {
			c := cells[row*trials+trial]
			dT += c.dT
			dM += c.dM
			dF += c.dF
		}
		n := float64(trials)
		t.AddRow(errPct, dT/n, dM/n, dF/n)
	}
	t.Notes = append(t.Notes,
		"expected shape: small deviations up to ~20% error, growing with larger errors")
	return t
}

func pctDiff(actual, planned float64) float64 {
	if planned == 0 {
		if actual == 0 {
			return 0
		}
		return 100
	}
	return math.Abs(actual-planned) / planned * 100
}

// Fig7Row is one comparison point of the online load-balance scheduler
// against the offline skyline scheduler.
type Fig7Row struct {
	Scale        float64
	TimeDiffPct  float64 // (online - offline) / offline * 100
	MoneyDiffPct float64
}

// Fig7Result carries both sweeps for assertions.
type Fig7Result struct {
	Table     *Table
	CPUSweep  []Fig7Row
	DataSweep []Fig7Row
}

// Fig7 compares the online load-balance baseline with the offline skyline
// scheduler on Cybershake, scaling operator runtimes up to 10x with tiny
// data (CPU-intensive) and scaling data sizes up to 100x (data-intensive),
// as in §6.3. Positive percentages mean the online scheduler is worse.
func Fig7(seed int64, trials int) *Fig7Result {
	db, err := workload.NewFileDB(seed)
	if err != nil {
		panic(err)
	}
	gen := workload.NewGenerator(db, seed+1)
	opts := schedOptions()

	measure := func(timeScale, dataScale float64, trial int) (timeDiff, moneyDiff float64) {
		flow := gen.Flow(workload.Cybershake, trial, 0)
		g := scaleGraph(flow.Graph, timeScale, dataScale)
		off := sched.Fastest(sched.NewSkyline(opts).Schedule(g))
		on := sched.OnlineLoadBalance(g, opts)
		if off == nil || on == nil {
			return 0, 0
		}
		timeDiff = (on.Makespan() - off.Makespan()) / off.Makespan() * 100
		moneyDiff = (on.MoneyQuanta() - off.MoneyQuanta()) / off.MoneyQuanta() * 100
		return timeDiff, moneyDiff
	}

	res := &Fig7Result{Table: &Table{
		Title:  "Fig 7: Online load-balance vs offline skyline scheduler (Cybershake)",
		Header: []string{"Sweep", "Scale", "Time diff %", "Money diff %"},
	}}
	for _, scale := range []float64{1, 2, 5, 10} {
		var dT, dM float64
		for trial := 0; trial < trials; trial++ {
			a, b := measure(scale, 0.01, trial)
			dT += a
			dM += b
		}
		row := Fig7Row{Scale: scale, TimeDiffPct: dT / float64(trials), MoneyDiffPct: dM / float64(trials)}
		res.CPUSweep = append(res.CPUSweep, row)
		res.Table.AddRow("CPU x", scale, row.TimeDiffPct, row.MoneyDiffPct)
	}
	for _, scale := range []float64{1, 10, 50, 100} {
		var dT, dM float64
		for trial := 0; trial < trials; trial++ {
			a, b := measure(1, scale, trial)
			dT += a
			dM += b
		}
		row := Fig7Row{Scale: scale, TimeDiffPct: dT / float64(trials), MoneyDiffPct: dM / float64(trials)}
		res.DataSweep = append(res.DataSweep, row)
		res.Table.AddRow("Data x", scale, row.TimeDiffPct, row.MoneyDiffPct)
	}
	res.Table.Notes = append(res.Table.Notes,
		"expected shape: online competitive on CPU-intensive flows; up to ~2x slower and ~4x more expensive on data-intensive flows",
		"offline scheduler: skyline cap "+strconv.Itoa(opts.MaxSkyline)+", "+strconv.Itoa(opts.MaxContainers)+" containers")
	return res
}
