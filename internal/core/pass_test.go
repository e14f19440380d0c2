package core

import (
	"context"
	"reflect"
	"testing"

	"idxflow/internal/interleave"
	"idxflow/internal/workload"
)

// TestSchedulerBuiltOnceAndConfigReadOnly: a service builds its scheduler
// and interleaver in NewService and never again, and nothing a submit does
// is written into the service's Config. At the parent of this test the
// scheduler was rebuilt per submit from a Config whose Sched.FlowID and
// Sched.Now were rewritten each time.
func TestSchedulerBuiltOnceAndConfigReadOnly(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	svc := NewService(quickConfig(Gain), db)
	sk := svc.skyline
	if lp, ok := svc.interleaver.(*interleave.LP); !ok || lp.Scheduler != sk {
		t.Fatalf("interleaver %T does not drive the service's skyline", svc.interleaver)
	}
	before := svc.cfg
	for i := 0; i < 50; i++ {
		res := svc.SubmitCtx(context.Background(), gen.Flow(workload.Apps[i%len(workload.Apps)], i, svc.Clock()))
		if res.FlowID != svc.at.Flow || res.Start != svc.at.T {
			t.Fatalf("submit %d: attribution cell %+v, result flow %d start %g", i, *svc.at, res.FlowID, res.Start)
		}
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
