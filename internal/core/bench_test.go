package core

import (
	"context"
	"testing"

	"idxflow/internal/dataflow"
	"idxflow/internal/flowlang"
	"idxflow/internal/workload"
)

// BenchmarkSubmit times one tenant serving a stream of the benchmark's two
// serve shapes; one op is the whole stream, so what an op allocates does
// not depend on b.N. unique is TestBenchShapedStream's stream, 525 flows of
// fresh DAGs in application rotation; recurring is the same generator's
// first 24 flows as templates, each submitted 16 times in a row, so the
// warm memo answers all but a template's first submit. Each op builds a
// fresh tenant (database and service) and parses every flow from its text,
// as the server parses a body, with the timer stopped. ns/submit is the
// time per flow.
func BenchmarkSubmit(b *testing.B) {
	const stream, templates, repeats = 525, 24, 16
	db, err := workload.NewFileDB(1)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(db, 18)
	unique := make([]string, stream)
	for seq := range unique {
		unique[seq] = flowlang.Marshal(gen.Flow(workload.Apps[seq%len(workload.Apps)], seq, 0))
	}
	recurring := make([]string, stream)
	for seq := range recurring {
		recurring[seq] = unique[(seq/repeats)%templates]
	}
	for _, shape := range []struct {
		name   string
		bodies []string
	}{{"unique", unique}, {"recurring", recurring}} {
		b.Run(shape.name, func(b *testing.B) {
			flows := make([]*dataflow.Flow, stream)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tenant, err := workload.NewFileDB(1)
				if err != nil {
					b.Fatal(err)
				}
				svc := NewService(DefaultConfig(), tenant)
				for j, body := range shape.bodies {
					if flows[j], err = flowlang.ParseString(body); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, flow := range flows {
					svc.SubmitCtx(context.Background(), flow)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stream), "ns/submit")
		})
	}
}
