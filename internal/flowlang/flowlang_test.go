package flowlang

import (
	"math"
	"strings"
	"testing"

	"idxflow/internal/dataflow"
)

const sample = `
# a small ETL flow
flow etl-1 issued=120
input A/0
input A/1
op scan1 kind=range time=40 cpu=1 mem=0.25 reads=A/0,A/1
op scan2 kind=range time=45 reads=A/1
op join kind=join time=30 mem=0.5
op agg kind=aggregate time=10
op build kind=build-index time=25 optional priority=-1 builds=idx/A/orderkey/0
edge scan1 -> join size=64
edge scan2 -> join size=64
edge join -> agg size=8
index A/orderkey ops=scan1:94.44,scan2:7.44
`

func TestParseSample(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "etl-1" || f.IssuedAt != 120 {
		t.Errorf("flow meta: %q @ %g", f.Name, f.IssuedAt)
	}
	if len(f.Inputs) != 2 {
		t.Errorf("inputs = %v", f.Inputs)
	}
	if f.Graph.Len() != 5 {
		t.Errorf("ops = %d, want 5", f.Graph.Len())
	}
	// scan1 details.
	var scan1 *dataflow.Operator
	var buildOp *dataflow.Operator
	for _, id := range f.Graph.Ops() {
		op := f.Graph.Op(id)
		switch op.Name {
		case "scan1":
			scan1 = op
		case "build":
			buildOp = op
		}
	}
	if scan1 == nil || scan1.Kind != dataflow.KindRangeSelect || scan1.Time != 40 || len(scan1.Reads) != 2 {
		t.Errorf("scan1 = %+v", scan1)
	}
	if buildOp == nil || !buildOp.Optional || buildOp.Priority != -1 || buildOp.BuildsIndex != "idx/A/orderkey/0" {
		t.Errorf("build = %+v", buildOp)
	}
	if len(f.Indexes) != 1 || len(f.Indexes[0].Speedup) != 2 {
		t.Errorf("indexes = %+v", f.Indexes)
	}
	// Dependencies hold.
	if cp := f.Graph.CriticalPath(); cp != 45+30+10 {
		t.Errorf("critical path = %g, want 85", cp)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing flow":      "op a time=1\n",
		"dup flow":          "flow a\nflow b\n",
		"dup op":            "flow f\nop a time=1\nop a time=2\n",
		"unknown kind":      "flow f\nop a kind=zorp time=1\n",
		"bad time":          "flow f\nop a time=abc\n",
		"unknown directive": "flow f\nzap\n",
		"edge unknown op":   "flow f\nop a time=1\nedge a -> b\n",
		"edge syntax":       "flow f\nop a time=1\nop b time=1\nedge a b\n",
		"cycle":             "flow f\nop a time=1\nop b time=1\nedge a -> b\nedge b -> a\n",
		"index unknown op":  "flow f\nop a time=1\nindex i ops=zz:2\n",
		"index bad speedup": "flow f\nop a time=1\nindex i ops=a:xx\n",
		"bad kv":            "flow f\nop a time=\n",
		"bad flow attr":     "flow f zorp=1\n",
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	text := Marshal(f)
	f2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if f2.Name != f.Name || f2.IssuedAt != f.IssuedAt {
		t.Errorf("meta changed: %q@%g vs %q@%g", f2.Name, f2.IssuedAt, f.Name, f.IssuedAt)
	}
	if f2.Graph.Len() != f.Graph.Len() {
		t.Errorf("op count changed: %d vs %d", f2.Graph.Len(), f.Graph.Len())
	}
	if math.Abs(f2.Graph.CriticalPath()-f.Graph.CriticalPath()) > 1e-9 {
		t.Errorf("critical path changed: %g vs %g", f2.Graph.CriticalPath(), f.Graph.CriticalPath())
	}
	for _, id := range f.Graph.Ops() {
		if got, want := f2.Graph.Op(id).Time, f.Graph.Op(id).Time; math.Abs(got-want) > 1e-9 {
			t.Errorf("op %d time changed: %g vs %g", id, got, want)
		}
	}
	if len(f2.Indexes) != len(f.Indexes) {
		t.Errorf("index count changed")
	}
	if len(f2.Inputs) != len(f.Inputs) {
		t.Errorf("inputs changed")
	}
}

func TestMarshalUnnamed(t *testing.T) {
	f := &dataflow.Flow{Graph: dataflow.New()}
	text := Marshal(f)
	if !strings.Contains(text, "flow unnamed") {
		t.Errorf("Marshal of unnamed flow:\n%s", text)
	}
	if _, err := ParseString(text); err != nil {
		t.Errorf("re-parse: %v", err)
	}
}

func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("flow f\nop a time=1\n")
	f.Add("flow f issued=5\ninput x\nop a kind=sort time=2 optional\n")
	f.Fuzz(func(t *testing.T, src string) {
		flow, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		// Whatever parses must be a valid graph and must round-trip.
		if err := flow.Graph.Validate(); err != nil {
			t.Fatalf("parsed invalid graph: %v", err)
		}
		if _, err := ParseString(Marshal(flow)); err != nil {
			t.Fatalf("round-trip failed: %v", err)
		}
	})
}
