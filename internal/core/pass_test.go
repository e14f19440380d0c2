package core

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"idxflow/internal/data"
	"idxflow/internal/dataflow"
	"idxflow/internal/provenance"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// TestSchedulerBuiltOnceAndConfigReadOnly: a service builds its scheduler
// in NewService and never again, and nothing a submit does
// is written into the service's Config. At the parent of this test the
// scheduler was rebuilt per submit from a Config whose Sched.FlowID and
// Sched.Now were rewritten each time.
func TestSchedulerBuiltOnceAndConfigReadOnly(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	svc := NewService(quickConfig(Gain), db)
	sk := svc.skyline
	before := svc.cfg
	for i := 0; i < 50; i++ {
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Apps[i%len(workload.Apps)], i, svc.Clock()))
		if svc.skyline != sk {
			t.Fatalf("submit %d replaced the scheduler", i)
		}
	}
	after := svc.cfg
	// Func values are not comparable; none is set here.
	if before.Reserve != nil || before.PostExec != nil || after.Reserve != nil || after.PostExec != nil {
		t.Fatal("quickConfig sets no hooks")
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("Config changed across 50 submits:\nbefore %+v\nafter  %+v", before, after)
	}
	if svc.WarmStats().Misses == 0 {
		t.Error("the one skyline's memo saw no run")
	}
}

// TestEveryRecordCarriesItsPassFlowID: the pass stamps every event and span
// it records with its own flow id, the executor's build kills and fault
// events included, over a faulty run of several flows. Events of one pass
// follow its flow-admitted event and carry its id, at or after its decision
// time; a sched.skyline or sim.execute span completes before its pass's
// service.submit span and carries the same flow_id.
func TestEveryRecordCarriesItsPassFlowID(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	cfg := quickConfig(Gain)
	cfg.Faults = heavyFaultPlan()
	cfg.Provenance = provenance.NewRecorder(1 << 16)
	cfg.Tracer = telemetry.NewTracer()
	svc := NewService(cfg, db)
	for i := 0; i < 8; i++ {
		res := svc.SubmitCtx(context.Background(), gen.Flow(workload.Apps[i%len(workload.Apps)], i, svc.Clock()))
		if res.FlowID != provenance.FlowID(i+1) {
			t.Fatalf("submit %d got flow id %d", i, res.FlowID)
		}
	}

	var flow provenance.FlowID
	var admittedAt float64
	kinds := map[provenance.Kind]int{}
	for _, e := range cfg.Provenance.Snapshot() {
		if e.Kind == provenance.KindFlowAdmitted {
			if e.Flow != flow+1 {
				t.Fatalf("flow %d admitted after flow %d", e.Flow, flow)
			}
			flow, admittedAt = e.Flow, e.T
		}
		if e.Flow != flow || e.T < admittedAt {
			t.Errorf("seq %d %v: flow %d at t=%g inside the pass of flow %d admitted at t=%g",
				e.Seq, e.Kind, e.Flow, e.T, flow, admittedAt)
		}
		kinds[e.Kind]++
	}
	if flow != 8 {
		t.Fatalf("%d flows admitted, want 8", flow)
	}
	for _, k := range []provenance.Kind{provenance.KindIndexAdopted, provenance.KindBuildKilled,
		provenance.KindFaultInjected, provenance.KindFaultRecovered} {
		if kinds[k] == 0 {
			t.Errorf("the run recorded no %v event; the test does not cover it", k)
		}
	}

	var pending []telemetry.Event
	spans := map[string]int{}
	for _, sp := range cfg.Tracer.Events() {
		switch sp.Name {
		case "sched.skyline", "sim.execute":
			pending = append(pending, sp)
		case "service.submit":
			if want := uint64(spans["service.submit"] + 1); sp.Args.FlowID != want || sp.Args.Parent != -1 {
				t.Errorf("submit span %d has args %+v, want a root with flow_id %d", want, sp.Args, want)
			}
			spans[sp.Name]++
			for _, inner := range pending {
				if inner.Args.FlowID != sp.Args.FlowID {
					t.Errorf("%s span flow_id %d inside the submit of flow %d", inner.Name, inner.Args.FlowID, sp.Args.FlowID)
				}
				spans[inner.Name]++
			}
			pending = pending[:0]
		}
	}
	if len(pending) != 0 || spans["sched.skyline"] != 8 || spans["sim.execute"] != 8 {
		t.Errorf("spans per submit: %v, %d left outside any submit; want one skyline and one execute per flow", spans, len(pending))
	}
}

// TestCandidateLookupIsTheOfferOrder: the op→candidate lookup relies on
// build operators being appended to the rewritten graph consecutively.
func TestCandidateLookupIsTheOfferOrder(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	svc := NewService(quickConfig(Gain), db)
	for i := 0; i < 3; i++ {
		svc.SubmitCtx(context.Background(), gen.Flow(workload.Montage, i, svc.Clock()))
	}
	p := svc.admit(gen.Flow(workload.Montage, 3, svc.Clock()))
	svc.rewrite(p)
	svc.offer(p)
	if len(p.builds) == 0 {
		t.Fatal("no builds offered; the test needs some")
	}
	for i, b := range p.builds {
		got, ok := p.candidate(b.op)
		if !ok || got != b || !p.g.Op(b.op).Optional {
			t.Errorf("builds[%d]: candidate(%d) = %+v, %v", i, b.op, got, ok)
		}
	}
	for _, op := range p.flow.Graph.Ops() {
		if _, ok := p.candidate(op); ok {
			t.Errorf("dataflow operator %d resolved to a build candidate", op)
		}
	}
	if _, ok := p.candidate(p.builds[len(p.builds)-1].op + 1); ok {
		t.Error("an id past the last build resolved to a candidate")
	}
}

// TestRewriteScalesSpeedupsAndAddsRead pins the runtimes rewrite gives an
// operator (Alg. 2 lines 1-5): a fully built index divides by its speedup
// and adds one index partition's read, a partly built one divides by the
// s_eff of its touched fraction, and a speedup of at most 1 or an unbuilt
// index leaves the operator alone. The submitted graph is never changed.
func TestRewriteScalesSpeedupsAndAddsRead(t *testing.T) {
	db := testDB(t)
	var file workload.File
	for _, f := range db.Files {
		if len(f.Table.Partitions) >= 2 {
			file = f
			break
		}
	}
	if file.Table == nil {
		t.Fatal("no file with two partitions")
	}
	full, part, unbuilt := file.Indexes[0], file.Indexes[1], file.Indexes[2]
	for _, p := range file.Table.Partitions {
		if err := db.Catalog.State(full.Name()).MarkBuilt(p.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Catalog.State(part.Name()).MarkBuilt(file.Table.Partitions[0].ID); err != nil {
		t.Fatal(err)
	}

	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 100})
	b := g.Add(dataflow.Operator{Name: "b", Time: 50})
	c := g.Add(dataflow.Operator{Name: "c", Time: 10})
	d := g.Add(dataflow.Operator{Name: "d", Time: 20})
	flow := &dataflow.Flow{Name: "rw", Graph: g, Indexes: []dataflow.IndexUse{
		{Index: full.Name(), Speedup: map[dataflow.OpID]float64{a: 4, b: 0.5}},
		{Index: part.Name(), Speedup: map[dataflow.OpID]float64{c: 3}},
		{Index: unbuilt.Name(), Speedup: map[dataflow.OpID]float64{d: 2}},
	}}
	for _, p := range file.Table.Partitions {
		flow.Inputs = append(flow.Inputs, p.Path)
	}

	svc := NewService(quickConfig(Gain), db)
	p := svc.admit(flow)
	svc.rewrite(p)

	spec := svc.cfg.Sched.Spec
	read := func(idx *data.Index) float64 {
		return spec.TransferSeconds(idx.SizeMB() / float64(len(idx.Table.Partitions)))
	}
	if read(full) <= 0 {
		t.Fatal("the index partition read is free; the test needs it charged")
	}
	f := 1 / float64(len(file.Table.Partitions))
	for _, tc := range []struct {
		op   dataflow.OpID
		want float64
	}{
		{a, 100/4.0 + read(full)},
		{b, 50},
		{c, 10/(1/(f/3+(1-f))) + read(part)},
		{d, 20},
	} {
		if got := p.g.Op(tc.op).Time; got != tc.want {
			t.Errorf("op %s: rewritten time %g, want %g", p.g.Op(tc.op).Name, got, tc.want)
		}
	}
	if got := flow.Graph.Op(a).Time; got != 100 {
		t.Errorf("submitted graph changed: op a time %g, want 100", got)
	}
	want := []string{full.Name(), part.Name()}
	sort.Strings(want)
	if !reflect.DeepEqual(p.res.IndexesUsed, want) {
		t.Errorf("IndexesUsed = %v, want %v", p.res.IndexesUsed, want)
	}
}

// TestInterleavedSummaryPerPass pins the placement summary of §5.3 a pass
// reports. Under LP and online interleaving each pass records exactly one
// interleaved event: Count is the optional operators the returned skyline
// places, Records the optional operators of the rewritten graph and
// Containers the skyline size; the placement counter advances by the same
// Count. The random baseline reports neither.
func TestInterleavedSummaryPerPass(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy Strategy
		algo     Interleaving
		reports  bool
	}{
		{"lp", Gain, LPInterleave, true},
		{"online", Gain, OnlineInterleave, true},
		{"random", RandomIndex, LPInterleave, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := testDB(t)
			gen := workload.NewGenerator(db, 2)
			cfg := quickConfig(tc.strategy)
			cfg.Algo = tc.algo
			cfg.Telemetry = telemetry.NewRegistry()
			cfg.Provenance = provenance.NewRecorder(1 << 16)
			svc := NewService(cfg, db)
			counter := cfg.Telemetry.Counter("idxflow_interleave_build_ops_placed_total", "")
			totalPlaced := 0
			for i := 0; i < 12; i++ {
				flow := gen.Flow(workload.Apps[i%len(workload.Apps)], i, svc.Clock())
				if i%2 == 1 {
					// An optional operator the flow carries itself, as a
					// flowlang body may: offered, though not by the tuner.
					flow.Graph.Add(dataflow.Operator{Name: "own", Time: 5, Priority: -1, Optional: true})
				}
				p := svc.admit(flow)
				svc.rewrite(p)
				svc.offer(p)
				svc.evict(p)
				before := counter.Value()
				if !svc.schedule(p) {
					t.Fatalf("pass %d: unschedulable", i)
				}
				placed, offered := 0, 0
				for _, s := range p.skyline {
					for _, a := range s.Assignments() {
						if p.g.Op(a.Op).Optional {
							placed++
						}
					}
				}
				for _, id := range p.g.Ops() {
					if p.g.Op(id).Optional {
						offered++
					}
				}
				totalPlaced += placed
				var got []provenance.Event
				for _, e := range cfg.Provenance.FlowEvents(p.id) {
					if e.Kind == provenance.KindInterleaved {
						got = append(got, e)
					}
				}
				delta := counter.Value() - before
				switch {
				case !tc.reports:
					if len(got) != 0 || delta != 0 {
						t.Fatalf("pass %d: random baseline reported %d events, counter +%g", i, len(got), delta)
					}
				case len(got) != 1:
					t.Fatalf("pass %d: %d interleaved events, want 1", i, len(got))
				default:
					e := got[0]
					if e.Count != placed || e.Records != offered || e.Containers != len(p.skyline) || e.T != p.now {
						t.Errorf("pass %d: event count %d records %d containers %d t %g; want %d %d %d %g",
							i, e.Count, e.Records, e.Containers, e.T, placed, offered, len(p.skyline), p.now)
					}
					if delta != float64(placed) {
						t.Errorf("pass %d: counter advanced by %g, want %d", i, delta, placed)
					}
				}
				svc.dedicate(p)
				if !svc.execute(context.Background(), p) {
					t.Fatalf("pass %d: execution cancelled", i)
				}
				svc.commit(p)
				svc.settle(p)
			}
			if totalPlaced == 0 {
				t.Error("no pass placed a build; the summary is untested")
			}
		})
	}
}
