package experiments

import (
	"fmt"

	"idxflow/internal/cloud"
	"idxflow/internal/data"
	"idxflow/internal/dataflow"
	"idxflow/internal/gain"
	"idxflow/internal/sched"
	"idxflow/internal/tpch"
	"idxflow/internal/workload"
)

// Params reports the experiment parameters (Table 3 of the paper).
func Params() *Table {
	p := cloud.DefaultPricing()
	t := &Table{
		Title:  "Table 3: Experiment Parameters",
		Header: []string{"Parameter", "Value"},
	}
	t.AddRow("Quantum size", fmt.Sprintf("%.0f seconds", p.QuantumSeconds))
	t.AddRow("Quantum cost", fmt.Sprintf("$%.2f", p.VMPerQuantum))
	t.AddRow("Storage cost", fmt.Sprintf("$%g per MB per quantum", p.StoragePerMBQuantum))
	t.AddRow("Max containers", sched.DefaultOptions().MaxContainers)
	t.AddRow("Dataflow", "Montage, Ligo, Cybershake")
	t.AddRow("Operators / dataflow", 100)
	t.AddRow("alpha", gain.DefaultParams().Alpha)
	t.AddRow("Poisson lambda", fmt.Sprintf("%d seconds (%g quantum)", workload.ArrivalGapSeconds, workload.ArrivalGapSeconds/p.QuantumSeconds))
	t.AddRow("Total time", fmt.Sprintf("%.0f quanta", Horizon720/p.QuantumSeconds))
	return t
}

// Table4 generates flows of each application and reports their operator
// runtime and input file-size statistics next to the paper's values.
func Table4(seed int64, flowsPerApp int) *Table {
	db, err := workload.NewFileDB(seed)
	if err != nil {
		panic(err)
	}
	gen := workload.NewGenerator(db, seed+1)
	t := &Table{
		Title: "Table 4: Basic statistics of the scientific dataflows (measured vs paper)",
		Header: []string{"Dataflow", "Ops", "MinT", "MaxT", "MeanT", "StdevT",
			"Files", "MinMB", "MaxMB", "MeanMB", "StdevMB"},
	}
	for _, app := range workload.Apps {
		flowsList := makeFlows(gen, app, flowsPerApp)
		st := workload.MeasuredStats(db, flowsList)
		t.AddRow(app.String(), st.Ops, st.MinT, st.MaxT, st.MeanT, st.StdevT,
			st.Files, st.MinMB, st.MaxMB, st.MeanMB, st.StdevMB)
		want := workload.Table4(app)
		t.AddRow(app.String()+" (paper)", want.Ops, want.MinT, want.MaxT, want.MeanT, want.StdevT,
			want.Files, want.MinMB, want.MaxMB, want.MeanMB, want.StdevMB)
	}
	return t
}

// Table5 reports the analytic index sizes on the lineitem table at scale 2,
// next to the paper's measured sizes.
func Table5() *Table {
	tab := tpch.TableDescriptor(2, 128)
	t := &Table{
		Title:  "Table 5: Indexes on table lineitem (scale 2, ~12M rows)",
		Header: []string{"Column", "Index Size (MB)", "% Table Size", "Paper MB", "Paper %"},
	}
	paper := map[string][2]float64{
		"comment":      {422.30, 30.16},
		"shipinstruct": {248.95, 17.78},
		"commitdate":   {225.91, 16.13},
		"orderkey":     {146.99, 10.49},
	}
	for _, col := range []string{"comment", "shipinstruct", "commitdate", "orderkey"} {
		idx, err := data.NewIndex(tab, col)
		if err != nil {
			panic(err)
		}
		sz := idx.SizeMB()
		t.AddRow(col, sz, sz/tab.SizeMB()*100, paper[col][0], paper[col][1])
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("table size %.2f GB (paper: 1.4 GB), %d partitions of <=128 MB",
			tab.SizeMB()/1024, len(tab.Partitions)))
	return t
}

// Fig3 reproduces the worked example of Table 2 / Fig. 3: the gain over
// time of indexes A (100 MB) and B (500 MB) under alpha=0.5, D=60, given
// the four dataflows of Table 2. One row per sampled time point.
func Fig3() *Table {
	p := gain.Params{Alpha: 0.5, FadeD: 60, WindowW: 0}
	pricing := cloud.DefaultPricing()
	q := pricing.QuantumSeconds
	// Table 2: dataflows d1(t=10, B), d2(t=30, B), d3(t=50, A+B), d4(t=100, A).
	type rec struct {
		index string
		r     gain.Record
	}
	table2 := []rec{
		{"B", gain.Record{When: 10 * q, TimeGain: 1, MoneyGain: 3}},
		{"B", gain.Record{When: 30 * q, TimeGain: 2, MoneyGain: 5}},
		{"A", gain.Record{When: 50 * q, TimeGain: 2, MoneyGain: 8}},
		{"B", gain.Record{When: 50 * q, TimeGain: 3, MoneyGain: 8}},
		{"A", gain.Record{When: 100 * q, TimeGain: 3, MoneyGain: 5}},
	}
	cA := gain.Costs{Name: "A", BuildQuanta: 1, BuildMoneyQuanta: 1, SizeMB: 100}
	cB := gain.Costs{Name: "B", BuildQuanta: 1.5, BuildMoneyQuanta: 1.5, SizeMB: 500}

	// evalAt sees only the dataflows issued up to time now — the service
	// cannot anticipate future arrivals.
	evalAt := func(now float64) *gain.Evaluator {
		e := gain.NewEvaluator(p, pricing)
		for _, rc := range table2 {
			if rc.r.When <= now {
				e.History.Add(rc.index, rc.r)
			}
		}
		return e
	}

	t := &Table{
		Title:  "Fig 3: Gain over time of indexes A and B (Table 2 example)",
		Header: []string{"t (quanta)", "g(A,t)", "g(B,t)", "A beneficial", "B beneficial"},
	}
	for _, tq := range []float64{0, 10, 20, 30, 40, 50, 60, 80, 100, 125, 150, 200, 300} {
		now := tq * q
		e := evalAt(now)
		t.AddRow(tq, e.Gain(cA, now), e.Gain(cB, now),
			e.Evaluate(cA, now).Beneficial(), e.Evaluate(cB, now).Beneficial())
	}
	t.Notes = append(t.Notes,
		"expected shape: negative at first (storage cost), positive after enough dataflows use the index, fading back to negative")
	return t
}

func makeFlows(gen *workload.Generator, app workload.App, n int) []*dataflow.Flow {
	out := make([]*dataflow.Flow, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, gen.Flow(app, i, 0))
	}
	return out
}
