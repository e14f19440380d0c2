package core

import (
	"context"
	"math"
	"testing"

	"idxflow/internal/dataflow"
	"idxflow/internal/workload"
)

func TestSubmitCtxPreCancelledLeavesServiceUntouched(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	svc := NewService(quickConfig(Gain), db)

	warm := gen.Flow(workload.Montage, 0, 100)
	if res := svc.SubmitCtx(context.Background(), warm); res.Cancelled {
		t.Fatal("uncancelled Submit reported Cancelled")
	}
	clock, vmQ := svc.Clock(), svc.vmQ
	results := len(svc.metrics.Results)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := svc.SubmitCtx(ctx, gen.Flow(workload.Montage, 1, 200))
	if !res.Cancelled {
		t.Fatal("SubmitCtx with cancelled context: Cancelled = false")
	}
	if res.Makespan != 0 || res.MoneyQuanta != 0 {
		t.Errorf("cancelled submission carries effects: %+v", res)
	}
	if svc.Clock() != clock {
		t.Errorf("clock moved %g -> %g on cancelled submission", clock, svc.Clock())
	}
	if svc.vmQ != vmQ {
		t.Errorf("quanta charged on cancelled submission: %g -> %g", vmQ, svc.vmQ)
	}
	if len(svc.metrics.Results) != results {
		t.Error("cancelled submission appended a FlowResult")
	}
}

func TestRunCtxCancelledAdmitsNothing(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 2)
	svc := NewService(quickConfig(Gain), db)

	var flows []*dataflow.Flow
	for i := 0; i < 3; i++ {
		flows = append(flows, gen.Flow(workload.Montage, i, 0))
	}
	before := svc.Run(flows[:2], 1e9)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	after := svc.RunCtx(ctx, flows[2:], 1e9)
	if after.FlowsSubmitted != before.FlowsSubmitted {
		t.Errorf("cancelled RunCtx admitted flows: submitted %d -> %d",
			before.FlowsSubmitted, after.FlowsSubmitted)
	}
	if after.FlowsFinished != before.FlowsFinished {
		t.Errorf("cancelled RunCtx finished flows: %d -> %d",
			before.FlowsFinished, after.FlowsFinished)
	}
	if after.VMQuanta != before.VMQuanta {
		t.Errorf("cancelled RunCtx charged quanta: %g -> %g",
			before.VMQuanta, after.VMQuanta)
	}
}

// Aggregates must report the same books for a Submit-driven service as Run
// reports for a batch-driven one over the same flows.
func TestAggregatesMatchesRun(t *testing.T) {
	dbA, dbB := testDB(t), testDB(t)
	genA := workload.NewGenerator(dbA, 2)
	genB := workload.NewGenerator(dbB, 2)
	svcA := NewService(quickConfig(Gain), dbA)
	svcB := NewService(quickConfig(Gain), dbB)

	// Four real flows and, in the middle, the degenerate one: an empty graph
	// schedules onto no container, runs for no time, and is still a result
	// both sides count.
	streamOf := func(gen *workload.Generator) []*dataflow.Flow {
		var flows []*dataflow.Flow
		for i := 0; i < 4; i++ {
			if i == 2 {
				flows = append(flows, &dataflow.Flow{Name: "empty", Graph: dataflow.New()})
			}
			flows = append(flows, gen.Flow(workload.Montage, i, 0))
		}
		return flows
	}
	want := svcA.Run(streamOf(genA), 1e9)

	for _, f := range streamOf(genB) {
		svcB.SubmitCtx(context.Background(), f)
	}
	got := svcB.Aggregates()
	if len(got.Results) != 5 || want.FlowsSubmitted != 5 {
		t.Fatalf("results %d, Run submitted %d, want 5 and 5", len(got.Results), want.FlowsSubmitted)
	}

	if got.FlowsSubmitted != want.FlowsSubmitted || got.FlowsFinished != want.FlowsFinished {
		t.Errorf("flows: got %d/%d, want %d/%d",
			got.FlowsSubmitted, got.FlowsFinished, want.FlowsSubmitted, want.FlowsFinished)
	}
	if got.TotalOps != want.TotalOps || got.KilledOps != want.KilledOps {
		t.Errorf("ops: got %d/%d, want %d/%d",
			got.TotalOps, got.KilledOps, want.TotalOps, want.KilledOps)
	}
	if math.Abs(got.VMQuanta-want.VMQuanta) > 1e-9 {
		t.Errorf("VMQuanta: got %g, want %g", got.VMQuanta, want.VMQuanta)
	}
	if math.Abs(got.MeanMakespan-want.MeanMakespan) > 1e-9 {
		t.Errorf("MeanMakespan: got %g, want %g", got.MeanMakespan, want.MeanMakespan)
	}
	// Storage-derived fields (StorageCost, CostPerFlow) are excluded: Run
	// accrues storage to its horizon, Aggregates to the service clock.
	if math.Abs(got.VMCost-want.VMCost) > 1e-9 {
		t.Errorf("VMCost: got %g, want %g", got.VMCost, want.VMCost)
	}
}
