package check

import (
	"fmt"
	"math/rand"

	"idxflow/internal/cloud"
	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/gain"
	"idxflow/internal/sched"
)

// Everything in this file is pure seeded math/rand: the same configuration
// and seed always produce the identical value, so a failing property test
// or fuzz input reproduces bit for bit.

// Shape selects the topology family of a generated dataflow graph.
type Shape int

const (
	// Layered partitions operators into levels with edges only between
	// consecutive-or-later levels — the Montage/LIGO workflow shape of
	// Fig. 5.
	Layered Shape = iota
	// RandomOrder draws a random topological order and adds forward edges
	// with independent probability — adversarial DAGs with long dependency
	// chains and wide fan-in the workflow generators never produce.
	RandomOrder
)

// GraphConfig parameterizes the random DAG generator.
type GraphConfig struct {
	// Ops is the number of mandatory dataflow operators (>= 1).
	Ops int
	// Layers is the level count for the Layered shape (clamped to [1, Ops]).
	Layers int
	// EdgeProb is the probability of each candidate forward edge.
	EdgeProb float64
	// MaxTime bounds operator runtimes: times are continuous uniform in
	// (0.1, MaxTime], so generated schedules have no exact start-time ties
	// and relabeling metamorphic tests can demand bit-equal results.
	MaxTime float64
	// MaxEdgeMB bounds edge sizes (uniform in [0, MaxEdgeMB)).
	MaxEdgeMB float64
	// Builds is the number of optional index-build operators appended to
	// the graph (no edges: build operators are independent, §5.3).
	Builds int
	// MaxBuildTime bounds build-operator runtimes (defaults to MaxTime).
	MaxBuildTime float64
}

// DefaultGraphConfig returns a medium workload: 12 operators in 4 layers
// with 3 builds.
func DefaultGraphConfig() GraphConfig {
	return GraphConfig{Ops: 12, Layers: 4, EdgeProb: 0.35, MaxTime: 90, MaxEdgeMB: 64, Builds: 3}
}

func (c GraphConfig) normalized() GraphConfig {
	if c.Ops < 1 {
		c.Ops = 1
	}
	if c.Layers < 1 {
		c.Layers = 1
	}
	if c.Layers > c.Ops {
		c.Layers = c.Ops
	}
	if c.EdgeProb < 0 {
		c.EdgeProb = 0
	}
	if c.EdgeProb > 1 {
		c.EdgeProb = 1
	}
	if c.MaxTime <= 0.1 {
		c.MaxTime = 60
	}
	if c.MaxEdgeMB < 0 {
		c.MaxEdgeMB = 0
	}
	if c.Builds < 0 {
		c.Builds = 0
	}
	if c.MaxBuildTime <= 0.1 {
		c.MaxBuildTime = c.MaxTime
	}
	return c
}

// Graph generates a random DAG with the given shape. The result always
// passes dataflow.Graph.Validate.
func Graph(shape Shape, cfg GraphConfig, seed int64) *dataflow.Graph {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(seed))
	g := dataflow.New()
	opTime := func(max float64) float64 { return 0.1 + rng.Float64()*(max-0.1) }

	ids := make([]dataflow.OpID, cfg.Ops)
	for i := range ids {
		ids[i] = g.Add(dataflow.Operator{
			Name:     fmt.Sprintf("op%d", i),
			Kind:     dataflow.Kind(rng.Intn(int(dataflow.KindAggregate) + 1)),
			CPU:      1,
			Time:     opTime(cfg.MaxTime),
			Priority: 1,
		})
	}

	switch shape {
	case Layered:
		// Assign each op a layer; guarantee each layer is non-empty by
		// seeding one op per layer first.
		layer := make([]int, cfg.Ops)
		for i := range layer {
			if i < cfg.Layers {
				layer[i] = i
			} else {
				layer[i] = rng.Intn(cfg.Layers)
			}
		}
		for i := 0; i < cfg.Ops; i++ {
			for j := 0; j < cfg.Ops; j++ {
				if layer[j] <= layer[i] {
					continue
				}
				if rng.Float64() < cfg.EdgeProb {
					mustConnect(g, ids[i], ids[j], rng.Float64()*cfg.MaxEdgeMB)
				}
			}
		}
		// Every non-source op in layer > 0 gets at least one predecessor
		// from an earlier layer, keeping the workflow connected downward.
		for j := 0; j < cfg.Ops; j++ {
			if layer[j] == 0 || len(g.In(ids[j])) > 0 {
				continue
			}
			var cands []int
			for i := 0; i < cfg.Ops; i++ {
				if layer[i] < layer[j] {
					cands = append(cands, i)
				}
			}
			i := cands[rng.Intn(len(cands))]
			mustConnect(g, ids[i], ids[j], rng.Float64()*cfg.MaxEdgeMB)
		}
	case RandomOrder:
		order := rng.Perm(cfg.Ops)
		for a := 0; a < cfg.Ops; a++ {
			for b := a + 1; b < cfg.Ops; b++ {
				if rng.Float64() < cfg.EdgeProb {
					mustConnect(g, ids[order[a]], ids[order[b]], rng.Float64()*cfg.MaxEdgeMB)
				}
			}
		}
	}

	for b := 0; b < cfg.Builds; b++ {
		g.Add(dataflow.Operator{
			Name:        fmt.Sprintf("build%d", b),
			Kind:        dataflow.KindBuildIndex,
			CPU:         1,
			Time:        opTime(cfg.MaxBuildTime),
			Priority:    -1,
			Optional:    true,
			BuildsIndex: fmt.Sprintf("idx%d", b),
		})
	}
	return g
}

// mustConnect panics on a Connect error: the generators only propose
// forward edges between existing operators, so failure is a generator bug.
func mustConnect(g *dataflow.Graph, from, to dataflow.OpID, size float64) {
	if err := g.Connect(from, to, size); err != nil {
		panic("check: generator produced invalid edge: " + err.Error())
	}
}

// Pricing draws a random but well-formed pricing policy: quantum between
// 10 s and 120 s, VM price in (0, 0.5], storage price in [1e-6, 1e-3].
func Pricing(seed int64) cloud.Pricing {
	rng := rand.New(rand.NewSource(seed))
	return cloud.Pricing{
		QuantumSeconds:      10 + rng.Float64()*110,
		VMPerQuantum:        0.05 + rng.Float64()*0.45,
		StoragePerMBQuantum: 1e-6 + rng.Float64()*1e-3,
	}
}

// VMTypes draws a heterogeneous pool of n types: type 0 is the baseline
// (speed 1, the configured VM price); later types get increasing speed
// factors priced superlinearly, like real cloud tiers.
func VMTypes(n int, p cloud.Pricing, seed int64) []cloud.VMType {
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	spec := cloud.DefaultSpec()
	types := make([]cloud.VMType, n)
	types[0] = cloud.VMType{Name: "t0", Spec: spec, PricePerQuantum: p.VMPerQuantum, SpeedFactor: 1}
	speed := 1.0
	for i := 1; i < n; i++ {
		speed *= 1.5 + rng.Float64()
		types[i] = cloud.VMType{
			Name:            fmt.Sprintf("t%d", i),
			Spec:            spec,
			PricePerQuantum: p.VMPerQuantum * speed * (1.05 + 0.2*rng.Float64()),
			SpeedFactor:     speed,
		}
	}
	return types
}

// Options draws scheduler options over the given pricing: container cap in
// [2, 12], skyline cap in [4, 16], heterogeneous types with probability
// 1/3.
func Options(p cloud.Pricing, seed int64) sched.Options {
	rng := rand.New(rand.NewSource(seed))
	opts := sched.Options{
		Pricing:       p,
		Spec:          cloud.DefaultSpec(),
		MaxContainers: 2 + rng.Intn(11),
		MaxSkyline:    4 + rng.Intn(13),
	}
	if rng.Intn(3) == 0 {
		opts.Types = VMTypes(2+rng.Intn(2), p, seed+101)
	}
	return opts
}

// UpdateStream draws n gain records over [0, horizon) with non-negative
// per-dataflow gains, When-ascending — the history an index accumulates as
// dataflows that would profit from it are issued (§4).
func UpdateStream(n int, horizon float64, seed int64) []gain.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]gain.Record, n)
	at := 0.0
	for i := range recs {
		at += rng.ExpFloat64() * horizon / float64(n+1)
		recs[i] = gain.Record{
			When:      at,
			TimeGain:  rng.Float64() * 3,
			MoneyGain: rng.Float64() * 3,
		}
	}
	return recs
}

// CostGrid draws n index-cost entries with distinct names, small build
// costs and footprints up to 4 GB.
func CostGrid(n int, seed int64) []gain.Costs {
	rng := rand.New(rand.NewSource(seed))
	out := make([]gain.Costs, n)
	for i := range out {
		out[i] = gain.Costs{
			Name:             fmt.Sprintf("idx%02d", i),
			BuildQuanta:      rng.Float64() * 2,
			BuildMoneyQuanta: rng.Float64() * 2,
			SizeMB:           rng.Float64() * 4096,
		}
	}
	return out
}

// Scenario is a full generated test case: a graph, scheduler options and a
// fault plan, all derived from one seed.
type Scenario struct {
	Seed  int64
	Graph *dataflow.Graph
	Opts  sched.Options
	Plan  *fault.Plan
}

// NewScenario composes a scenario from a single seed: graph shape, sizes,
// pricing, the optional heterogeneous pool and the fault plan all derive
// from it deterministically. faultRate <= 0 yields a fault-free scenario.
func NewScenario(seed int64, faultRate float64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	shape := Shape(rng.Intn(2))
	cfg := GraphConfig{
		Ops:       3 + rng.Intn(14),
		Layers:    1 + rng.Intn(5),
		EdgeProb:  0.15 + rng.Float64()*0.5,
		MaxTime:   20 + rng.Float64()*100,
		MaxEdgeMB: rng.Float64() * 128,
		Builds:    rng.Intn(5),
	}
	p := Pricing(seed + 1)
	sc := Scenario{
		Seed:  seed,
		Graph: Graph(shape, cfg, seed+2),
		Opts:  Options(p, seed+3),
	}
	if faultRate > 0 {
		horizon := cfg.MaxTime * float64(cfg.Ops)
		sc.Plan = fault.Generate(faultRate, p.QuantumSeconds, horizon, seed+4)
	}
	return sc
}
