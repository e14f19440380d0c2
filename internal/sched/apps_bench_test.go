package sched_test

import (
	"testing"

	"idxflow/internal/dataflow"
	"idxflow/internal/sched"
	"idxflow/internal/workload"
)

// BenchmarkSkylineApps times one fresh Skyline over 60 generator DAGs,
// Montage, LIGO and CyberShake in turn, under DefaultOptions: the shape
// the server schedules on a stream of unique flows, where every DAG is a
// warm-memo miss. BenchmarkSkyline100Ops times one synthetic graph with
// MaxSkyline 4 instead.
func BenchmarkSkylineApps(b *testing.B) {
	db, err := workload.NewFileDB(1)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(db, 18)
	graphs := make([]*dataflow.Graph, 60)
	for seq := range graphs {
		graphs[seq] = gen.Flow(workload.Apps[seq%len(workload.Apps)], seq, 0).Graph
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk := sched.NewSkyline(sched.DefaultOptions())
		for _, g := range graphs {
			if sky := sk.Schedule(g); len(sky) == 0 {
				b.Fatal("empty skyline")
			}
		}
	}
}
