package dataflow

// IndexUse associates a potential index with the operators of one dataflow
// that it can accelerate. Speedup maps an operator to the factor by which the
// index divides its runtime (Table 6 of the paper); operators not present are
// unaffected.
type IndexUse struct {
	// Index is the name of the index, e.g. "lineitem/orderkey".
	Index string
	// Speedup is the per-operator runtime division factor (>1).
	Speedup map[OpID]float64
}

// Flow is a dataflow issued to the service, modelled as d(expr, R, N, t)
// per §3: a DAG definition, the set R of input partitions, the set N of
// indexes that can accelerate it, and the time point t it was issued.
type Flow struct {
	// Name identifies the dataflow, e.g. "montage-17".
	Name string
	// Graph is the operator DAG.
	Graph *Graph
	// Inputs is R: the partition paths read from the storage service.
	Inputs []string
	// Indexes is N: the potential indexes with their per-operator speedups.
	Indexes []IndexUse
	// IssuedAt is t, in seconds since the service started.
	IssuedAt float64
}

// UsesIndex reports whether the flow lists the named index as potentially
// useful, and returns its IndexUse if so.
func (f *Flow) UsesIndex(name string) (IndexUse, bool) {
	for _, iu := range f.Indexes {
		if iu.Index == name {
			return iu, true
		}
	}
	return IndexUse{}, false
}

// TimeSavedBy returns the total operator runtime in seconds that the named
// index would save on this flow: the sum over accelerated operators of
// time*(1 - 1/speedup). It returns 0 if the flow does not use the index.
// The sum runs in ascending operator id, not in map order: float addition
// is not associative, and the gains recorded for a flow must be the same
// bits on every run of one seed.
func (f *Flow) TimeSavedBy(name string) float64 {
	iu, ok := f.UsesIndex(name)
	if !ok {
		return 0
	}
	var saved float64
	left := len(iu.Speedup)
	for id := OpID(0); left > 0 && int(id) < f.Graph.Len(); id++ {
		s, ok := iu.Speedup[id]
		if !ok {
			continue
		}
		left--
		if s > 1 {
			saved += f.Graph.Op(id).Time * (1 - 1/s)
		}
	}
	return saved
}

// ApplyIndex applies one index use to g in place (the update step of
// Algorithm 2, lines 1-5). The index covers fraction f of the partitions the
// flow touches: an accelerated operator runs that part at time/s and the
// rest at full speed, so it runs time/s_eff with s_eff = 1 / (f/s + (1-f)),
// plus read seconds to fetch one index partition from storage. An operator
// missing from g, or with s_eff <= 1, is left alone. Applying two uses
// composes them multiplicatively.
func (g *Graph) ApplyIndex(iu IndexUse, f, read float64) {
	for id, s := range iu.Speedup {
		op := g.Op(id)
		if eff := 1 / (f/s + (1 - f)); op != nil && eff > 1 {
			op.Time /= eff
			op.Time += read
		}
	}
}
