package flowlang

import (
	"runtime"
	"strings"
	"testing"

	"idxflow/internal/dataflow"
	"idxflow/internal/workload"
)

// benchBodies returns n bodies of the shape the server is sent: ~100
// operators, ~150 edges and ~20 index lines in ~15 kB, the three
// applications in turn.
func benchBodies(tb testing.TB, n int) []string {
	db, err := workload.NewFileDB(1)
	if err != nil {
		tb.Fatal(err)
	}
	gen := workload.NewGenerator(db, 1)
	bodies := make([]string, n)
	for seq := range bodies {
		bodies[seq] = Marshal(gen.Flow(workload.Apps[seq%len(workload.Apps)], seq, 0))
	}
	return bodies
}

var parsed *dataflow.Flow

// BenchmarkParse parses request-shaped bodies through a reader, as
// server.handleSubmit does.
func BenchmarkParse(b *testing.B) {
	bodies := benchBodies(b, 48)
	total := 0
	for _, body := range bodies {
		total += len(body)
	}
	b.SetBytes(int64(total / len(bodies)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow, err := Parse(strings.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		parsed = flow
	}
}

// TestParseAllocations bounds what parsing one 100-operator body allocates,
// in objects and in bytes relative to the body, so that a buffer per
// request or a string per token cannot come back unseen.
func TestParseAllocations(t *testing.T) {
	body := benchBodies(t, 1)[0]
	flow, err := ParseString(body)
	if err != nil {
		t.Fatal(err)
	}
	if flow.Graph.Len() < 100 {
		t.Fatalf("the body has %d operators, want at least 100", flow.Graph.Len())
	}
	parse := func() {
		if parsed, err = Parse(strings.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, parse); allocs > 700 {
		t.Errorf("%.0f allocations per parse, want at most 700", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	if perParse := (after.TotalAlloc - before.TotalAlloc) / runs; perParse > 8*uint64(len(body)) {
		t.Errorf("%d B allocated per parse of a %d B body, want at most 8x", perParse, len(body))
	}
}
