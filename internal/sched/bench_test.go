package sched

import (
	"math/rand"
	"testing"

	"idxflow/internal/dataflow"
)

func benchGraph(n int) *dataflow.Graph {
	rng := rand.New(rand.NewSource(5))
	g := dataflow.New()
	ids := make([]dataflow.OpID, n)
	for i := range ids {
		ids[i] = g.Add(dataflow.Operator{Name: "op", Time: 5 + rng.Float64()*60})
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < 3.0/float64(i+1) {
				g.Connect(ids[j], ids[i], rng.Float64()*20)
			}
		}
	}
	return g
}

// The two skyline benchmarks time a one-shot cold run: a fresh Skyline per
// iteration, since a reused one would replay its memo.
func BenchmarkSkyline100Ops(b *testing.B) {
	g := benchGraph(100)
	opts := DefaultOptions()
	opts.MaxSkyline = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sky := NewSkyline(opts).Schedule(g); len(sky) == 0 {
			b.Fatal("empty skyline")
		}
	}
}

func BenchmarkSkylineWide(b *testing.B) {
	g := benchGraph(100)
	opts := DefaultOptions()
	opts.MaxSkyline = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSkyline(opts).Schedule(g)
	}
}

func BenchmarkOnlineLoadBalance(b *testing.B) {
	g := benchGraph(100)
	opts := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := OnlineLoadBalance(g, opts); s == nil {
			b.Fatal("nil schedule")
		}
	}
}

func BenchmarkIdleSlots(b *testing.B) {
	g := benchGraph(100)
	opts := DefaultOptions()
	opts.MaxSkyline = 4
	s := Fastest(NewSkyline(opts).Schedule(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IdleSlots()
	}
}
