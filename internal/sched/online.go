package sched

import (
	"idxflow/internal/dataflow"
)

// OnlineLoadBalance is the baseline scheduler of §6.3: it examines the
// dataflow graph in an online greedy fashion and assigns each operator to
// the least-loaded container of a pool sized to the graph's natural
// parallelism (its widest dependency level), without considering data
// placement or the quantized pricing. On CPU-intensive flows this is
// competitive with the offline scheduler; on data-intensive flows the blind
// placement pays heavy transfer costs.
func OnlineLoadBalance(g *dataflow.Graph, opts Options) *Schedule {
	if opts.MaxContainers <= 0 {
		opts.MaxContainers = 1
	}
	pool := 1
	for _, level := range g.Levels() {
		n := 0
		for _, id := range level {
			if !g.Op(id).Optional {
				n++
			}
		}
		if n > pool {
			pool = n
		}
	}
	if pool > opts.MaxContainers {
		pool = opts.MaxContainers
	}
	s := NewSchedule(g, opts.Pricing, opts.Spec)
	topo, err := g.TopoSort()
	if err != nil {
		return nil
	}
	load := make([]float64, pool)
	for _, id := range topo {
		if g.Op(id).Optional {
			continue
		}
		best := 0
		for c := range load {
			if load[c] < load[best] {
				best = c
			}
		}
		a, err := s.Append(id, best)
		if err != nil {
			return nil
		}
		load[best] = a.End
	}
	return s
}
