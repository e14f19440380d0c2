package workload

import (
	"idxflow/internal/dataflow"
	"math"
	"testing"
)

func newDB(t *testing.T) *FileDB {
	t.Helper()
	db, err := NewFileDB(1)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFileDBShape(t *testing.T) {
	db := newDB(t)
	if got := len(db.Files); got != 125 {
		t.Errorf("files = %d, want 125 (Table 4)", got)
	}
	if got := len(db.ByApp(Montage)); got != 20 {
		t.Errorf("montage files = %d, want 20", got)
	}
	if got := len(db.ByApp(Ligo)); got != 53 {
		t.Errorf("ligo files = %d, want 53", got)
	}
	if got := len(db.ByApp(Cybershake)); got != 52 {
		t.Errorf("cybershake files = %d, want 52", got)
	}
	// §6.1: ~76.69 GB total, 713 partitions. The heavy lognormal tail
	// makes the total noisy, so accept a broad band around the target.
	gb := db.TotalMB() / 1024
	if gb < 20 || gb > 220 {
		t.Errorf("total size = %.1f GB, want the same order as 76.69", gb)
	}
	if p := db.TotalPartitions(); p < 150 {
		t.Errorf("partitions = %d, want several hundred", p)
	}
	// Four indexes per file, all registered.
	if got := len(db.Catalog.IndexNames()); got != 4*125 {
		t.Errorf("registered indexes = %d, want 500", got)
	}
}

func TestFilePartitionsCapped(t *testing.T) {
	db := newDB(t)
	for _, f := range db.Files {
		for _, p := range f.Table.Partitions {
			if mb := f.Table.PartitionSizeMB(p); mb > MaxPartitionMB+0.001 {
				t.Fatalf("%s partition %d = %.1f MB > 128", f.Table.Name, p.ID, mb)
			}
		}
	}
}

func TestGraphShapes(t *testing.T) {
	db := newDB(t)
	gen := NewGenerator(db, 7)
	for _, app := range Apps {
		g, readers := gen.Graph(app)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", app, err)
		}
		if got := g.Len(); got < 90 || got > 110 {
			t.Errorf("%s has %d ops, want ~100 (Table 4)", app, got)
		}
		if len(readers) == 0 {
			t.Errorf("%s has no reader ops", app)
		}
		// Every source of the graph must be a reader (readers may also
		// appear deeper, e.g. LIGO's TrigBank level re-reads storage).
		isReader := make(map[dataflow.OpID]bool)
		for _, r := range readers {
			isReader[r] = true
		}
		for _, id := range g.Ops() {
			if len(g.In(id)) == 0 && !isReader[id] {
				t.Errorf("%s source %d is not a reader", app, id)
			}
		}
		if len(g.Levels()) < 3 {
			t.Errorf("%s has %d levels, want a layered workflow", app, len(g.Levels()))
		}
	}
}

func TestRuntimeStatsApproximateTable4(t *testing.T) {
	db := newDB(t)
	gen := NewGenerator(db, 3)
	for _, app := range Apps {
		want := Table4(app)
		var sum float64
		var n int
		min, max := math.Inf(1), 0.0
		for trial := 0; trial < 10; trial++ {
			g, _ := gen.Graph(app)
			for _, id := range g.Ops() {
				tm := g.Op(id).Time
				sum += tm
				n++
				if tm < min {
					min = tm
				}
				if tm > max {
					max = tm
				}
			}
		}
		mean := sum / float64(n)
		if mean < want.MeanT*0.5 || mean > want.MeanT*1.8 {
			t.Errorf("%s mean runtime = %.1f, want near %.1f", app, mean, want.MeanT)
		}
		if min < want.MinT*0.5 {
			t.Errorf("%s min runtime %.2f below Table 4 min %.2f", app, min, want.MinT)
		}
		if max > want.MaxT*1.2 {
			t.Errorf("%s max runtime %.1f above Table 4 max %.1f", app, max, want.MaxT)
		}
	}
}

func TestFlowCarriesIndexesAndReads(t *testing.T) {
	db := newDB(t)
	gen := NewGenerator(db, 5)
	f := gen.Flow(Montage, 0, 100)
	if f.Name != "montage-0" || f.IssuedAt != 100 {
		t.Errorf("flow meta = %q @ %g", f.Name, f.IssuedAt)
	}
	if len(f.Inputs) == 0 {
		t.Error("flow has no inputs")
	}
	if len(f.Indexes) == 0 {
		t.Fatal("flow has no potential indexes")
	}
	for _, iu := range f.Indexes {
		if db.IndexByName(iu.Index) == nil {
			t.Errorf("index %q not in catalog", iu.Index)
		}
		for id, s := range iu.Speedup {
			valid := false
			for _, v := range Table6Speedups {
				if s == v {
					valid = true
				}
			}
			if !valid {
				t.Errorf("speedup %g not from Table 6", s)
			}
			if f.Graph.Op(id) == nil {
				t.Errorf("index use references unknown op %d", id)
			}
		}
		if f.TimeSavedBy(iu.Index) <= 0 {
			t.Errorf("index %q saves no time", iu.Index)
		}
	}
}

func TestPoissonNextMean(t *testing.T) {
	db := newDB(t)
	gen := NewGenerator(db, 9)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		v := gen.PoissonNext(60)
		if v < 0 {
			t.Fatal("negative gap")
		}
		sum += v
	}
	mean := sum / n
	if mean < 55 || mean > 65 {
		t.Errorf("Poisson mean = %.1f, want ~60", mean)
	}
}

func TestPhaseWorkload(t *testing.T) {
	db := newDB(t)
	gen := NewGenerator(db, 11)
	// A shorter horizon scales every phase by the same factor; a longer one
	// keeps the paper's 720 quanta.
	for _, h := range []float64{7200, 43200, 86400} {
		var total float64
		for _, p := range DefaultPhasesFor(h) {
			total += p.Seconds
		}
		if want := math.Min(h, 43200); math.Abs(total-want) > 1e-9 {
			t.Errorf("DefaultPhasesFor(%g) spans %g s, want %g", h, total, want)
		}
	}
	if got := DefaultPhasesFor(7200)[0].Seconds; math.Abs(got-10000.0/6) > 1e-9 {
		t.Errorf("first phase at a 7200 s horizon = %g s, want 10000/6", got)
	}
	flows := gen.PhaseWorkload(DefaultPhasesFor(43200), 60)
	if len(flows) < 500 || len(flows) > 900 {
		t.Errorf("phase workload = %d flows, want ~720", len(flows))
	}
	// Arrival times are increasing and within [0, 43200).
	var prev float64
	for _, f := range flows {
		if f.IssuedAt < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = f.IssuedAt
	}
	if prev >= 43200 {
		t.Errorf("last arrival %g beyond the 720-quantum horizon", prev)
	}
	// Phases: flows before 10000 s are cybershake; at 12000 s ligo; etc.
	for _, f := range flows {
		wantApp := Cybershake
		switch {
		case f.IssuedAt < 10000:
			wantApp = Cybershake
		case f.IssuedAt < 15000:
			wantApp = Ligo
		case f.IssuedAt < 35000:
			wantApp = Montage
		}
		if got := f.Name[:len(wantApp.String())]; got != wantApp.String() {
			t.Fatalf("flow at %g is %q, want app %v", f.IssuedAt, f.Name, wantApp)
		}
	}
}

func TestRandomWorkloadMixesApps(t *testing.T) {
	db := newDB(t)
	gen := NewGenerator(db, 13)
	flows := gen.RandomWorkload(10000, 60)
	seen := map[string]bool{}
	for _, f := range flows {
		for _, a := range Apps {
			if len(f.Name) > len(a.String()) && f.Name[:len(a.String())] == a.String() {
				seen[a.String()] = true
			}
		}
	}
	if len(seen) != 3 {
		t.Errorf("apps seen = %v, want all three", seen)
	}
}

func TestMeasuredStats(t *testing.T) {
	db := newDB(t)
	gen := NewGenerator(db, 17)
	flows := []*dataflow.Flow{gen.Flow(Ligo, 0, 0), gen.Flow(Ligo, 1, 0)}
	st := MeasuredStats(db, flows)
	if st.Ops < 90 || st.Ops > 110 {
		t.Errorf("Ops = %d, want ~100", st.Ops)
	}
	if st.Files != 53 {
		t.Errorf("Files = %d, want 53 (ligo)", st.Files)
	}
	if st.MeanT <= 0 || st.StdevT <= 0 || st.MaxT < st.MinT {
		t.Errorf("degenerate stats: %+v", st)
	}
	if st.MeanMB <= 0 {
		t.Errorf("MeanMB = %g, want > 0", st.MeanMB)
	}
}
