package workload

import (
	"fmt"
	"math"
	"strings"

	"idxflow/internal/dataflow"
)

// Flow generates a complete dataflow of the given application issued at
// issuedAt seconds: the graph, the input partitions its readers consume,
// and the potential indexes with per-operator speedups drawn from Table 6.
func (gen *Generator) Flow(app App, seq int, issuedAt float64) *dataflow.Flow {
	g, readers := gen.Graph(app)
	files := gen.db.ByApp(app)
	flow := &dataflow.Flow{
		Name:     fmt.Sprintf("%s-%d", app, seq),
		Graph:    g,
		IssuedAt: issuedAt,
	}
	speedupOf := make(map[string]float64) // per (flow, index), drawn once
	useOps := make(map[string]map[dataflow.OpID]float64)
	seenInput := make(map[string]bool)
	assigned := make(map[dataflow.OpID]bool) // successors claimed by an index

	for i, r := range readers {
		f := files[i%len(files)]
		op := g.Op(r)
		// Readers consume a few partitions of their file.
		parts := f.Table.Partitions
		nReads := len(parts)
		if nReads > 4 {
			nReads = 4
		}
		start := 0
		if len(parts) > nReads {
			start = gen.rng.Intn(len(parts) - nReads + 1)
		}
		for _, p := range parts[start : start+nReads] {
			op.Reads = append(op.Reads, p.Path)
			if !seenInput[p.Path] {
				seenInput[p.Path] = true
				flow.Inputs = append(flow.Inputs, p.Path)
			}
		}
		// The reader represents a query over one column: one of the
		// file's four potential indexes can accelerate it. Downstream
		// operators consuming the reader's partitions benefit too (in
		// Fig. 2a both Q1 and Q2 use the partition's index), so the index
		// is associated with the reader and its immediate successors —
		// each operator with at most one index. Queries over a dataset
		// tend to filter on the same hot column, so 90% of readers pick
		// the file's primary column and the rest draw uniformly.
		choice := (i*7 + 3) % len(f.Indexes) // stable per-file primary column
		if gen.rng.Float64() < 0.1 {
			choice = gen.rng.Intn(len(f.Indexes))
		}
		idx := f.Indexes[choice]
		name := idx.Name()
		s, ok := speedupOf[name]
		if !ok {
			s = Table6Speedups[gen.rng.Intn(len(Table6Speedups))]
			speedupOf[name] = s
		}
		if useOps[name] == nil {
			useOps[name] = make(map[dataflow.OpID]float64)
		}
		useOps[name][r] = s
		// The index accelerates every downstream operator that consumes
		// data derived from the indexed partitions (all five §1 operator
		// categories benefit); each operator is claimed by one index.
		stack := []dataflow.OpID{r}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.Out(n) {
				if assigned[e.To] {
					continue
				}
				assigned[e.To] = true
				useOps[name][e.To] = s
				stack = append(stack, e.To)
			}
		}
	}
	for name, ops := range useOps {
		flow.Indexes = append(flow.Indexes, dataflow.IndexUse{Index: name, Speedup: ops})
	}
	// Deterministic order for reproducibility.
	sortIndexUses(flow.Indexes)
	return flow
}

func sortIndexUses(uses []dataflow.IndexUse) {
	for i := 1; i < len(uses); i++ {
		for j := i; j > 0 && uses[j].Index < uses[j-1].Index; j-- {
			uses[j], uses[j-1] = uses[j-1], uses[j]
		}
	}
}

// PoissonNext samples a Poisson(lambda)-distributed inter-arrival gap (the
// paper's Dataflow Generator Client computes the arrival time of the next
// dataflow as Pr(X=k) = λ^k e^-λ / k!, with λ = 60 seconds).
func (gen *Generator) PoissonNext(lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	// Knuth's method; λ=60 keeps e^-λ (≈1e-27) comfortably in float64.
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= gen.rng.Float64()
		if p <= l {
			return float64(k)
		}
		k++
	}
}

// Phase is one segment of the phase workload: dataflows of one application
// for a duration in seconds.
type Phase struct {
	App     App
	Seconds float64
}

// DefaultPhasesFor returns the §6.1 phase schedule: CyberShake for 10000 s,
// LIGO for 5000 s, Montage for 20000 s, CyberShake again for 8200 s — in
// total 43200 s = 720 quanta — with every phase scaled by horizon/43200
// when the horizon (in seconds) is shorter than that.
func DefaultPhasesFor(horizon float64) []Phase {
	phases := []Phase{
		{Cybershake, 10000},
		{Ligo, 5000},
		{Montage, 20000},
		{Cybershake, 8200},
	}
	if horizon < 43200 {
		f := horizon / 43200
		for i := range phases {
			phases[i].Seconds *= f
		}
	}
	return phases
}

// PhaseWorkload generates Poisson arrivals over the phase schedule: each
// arrival's application is determined by the phase containing its arrival
// time. lambda is the mean inter-arrival gap in seconds.
func (gen *Generator) PhaseWorkload(phases []Phase, lambda float64) []*dataflow.Flow {
	var total float64
	for _, p := range phases {
		total += p.Seconds
	}
	appAt := func(t float64) App {
		var acc float64
		for _, p := range phases {
			acc += p.Seconds
			if t < acc {
				return p.App
			}
		}
		return phases[len(phases)-1].App
	}
	var flows []*dataflow.Flow
	t := gen.PoissonNext(lambda)
	for seq := 0; t < total; seq++ {
		flows = append(flows, gen.Flow(appAt(t), seq, t))
		t += gen.PoissonNext(lambda)
	}
	return flows
}

// RandomWorkload generates Poisson arrivals for total seconds, choosing the
// application uniformly at random per dataflow (§6.5.2).
func (gen *Generator) RandomWorkload(total, lambda float64) []*dataflow.Flow {
	var flows []*dataflow.Flow
	t := gen.PoissonNext(lambda)
	for seq := 0; t < total; seq++ {
		app := Apps[gen.rng.Intn(len(Apps))]
		flows = append(flows, gen.Flow(app, seq, t))
		t += gen.PoissonNext(lambda)
	}
	return flows
}

// MeasuredStats computes the Table 4-style statistics of a set of flows of
// one application: operator runtimes and input file sizes.
func MeasuredStats(db *FileDB, flows []*dataflow.Flow) Stats {
	var st Stats
	st.MinT = math.Inf(1)
	var sumT, sumT2 float64
	n := 0
	for _, f := range flows {
		for _, id := range f.Graph.Ops() {
			op := f.Graph.Op(id)
			if op.Optional {
				continue
			}
			st.Ops++
			n++
			sumT += op.Time
			sumT2 += op.Time * op.Time
			if op.Time < st.MinT {
				st.MinT = op.Time
			}
			if op.Time > st.MaxT {
				st.MaxT = op.Time
			}
		}
	}
	if n > 0 {
		st.MeanT = sumT / float64(n)
		st.StdevT = math.Sqrt(math.Max(0, sumT2/float64(n)-st.MeanT*st.MeanT))
		st.Ops /= len(flows)
	}
	// File-size stats over the files of the flows' app.
	if len(flows) > 0 && db != nil {
		var app App
		for _, a := range Apps {
			if strings.HasPrefix(flows[0].Name, a.String()+"-") {
				app = a
			}
		}
		files := db.ByApp(app)
		st.Files = len(files)
		st.MinMB = math.Inf(1)
		var sum, sum2 float64
		for _, f := range files {
			mb := f.SizeMB()
			sum += mb
			sum2 += mb * mb
			if mb < st.MinMB {
				st.MinMB = mb
			}
			if mb > st.MaxMB {
				st.MaxMB = mb
			}
		}
		st.MeanMB = sum / float64(len(files))
		st.StdevMB = math.Sqrt(math.Max(0, sum2/float64(len(files))-st.MeanMB*st.MeanMB))
	}
	return st
}
