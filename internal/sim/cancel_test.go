package sim

import (
	"context"
	"slices"
	"strings"
	"testing"

	"idxflow/internal/dataflow"
	"idxflow/internal/fault"
	"idxflow/internal/provenance"
	"idxflow/internal/sched"
	"idxflow/internal/telemetry"
)

func TestExecutePreCancelledContext(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := New(cfg()).Execute(ctx, s, nil)
	if !res.Cancelled {
		t.Fatal("pre-cancelled context: Cancelled = false")
	}
	if res.Makespan != 0 || res.MoneyQuanta != 0 || len(res.Ops) != 0 {
		t.Errorf("cancelled result carries effects: %+v", res)
	}
}

func TestExecuteCancelledMidRun(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	b := g.Add(dataflow.Operator{Name: "b", Time: 10})
	if err := g.Connect(a, b, 0); err != nil {
		t.Fatal(err)
	}
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	s.Append(b, 0)

	ctx, cancel := context.WithCancel(context.Background())
	c := cfg()
	// Cancel from inside the first operator's runtime callback: the
	// executor must notice before starting the successor.
	c.Actual = func(op *dataflow.Operator) float64 {
		if op.Name == "a" {
			cancel()
		}
		return op.Time
	}
	res := New(c).Execute(ctx, s, nil)
	if !res.Cancelled {
		t.Fatal("mid-run cancel: Cancelled = false")
	}
	if res.MoneyQuanta != 0 {
		t.Errorf("cancelled run charged %g quanta", res.MoneyQuanta)
	}
}

// TestCancelledRunPublishesNothing: a run cancelled after a planned repair
// has dropped a build and after its first operator ran publishes none of
// what it tallied — no metric moves, no series appears and its Result
// carries no event — since a cancelled run never happened. The same
// executor's next run publishes as usual and returns its events.
func TestCancelledRunPublishesNothing(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	b := g.Add(dataflow.Operator{Name: "b", Time: 10})
	bi := g.Add(dataflow.Operator{Name: "build", Time: 30, Optional: true, Priority: -1})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)
	s.Append(b, 1)
	if _, err := s.PlaceAt(bi, 1, 10); err != nil {
		t.Fatal(err)
	}
	// Container 1 crashes while the build is planned to run: the planned
	// repair drops it, injecting the crash.
	faults := []fault.Event{{Kind: fault.ContainerCrash, At: 25, Container: 1}}

	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	c := cfg()
	c.Metrics = reg
	c.Actual = func(op *dataflow.Operator) float64 {
		if ctx.Err() == nil {
			cancel()
		}
		return op.Time
	}
	ex := New(c)
	scrape := func() string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	before := scrape()
	cancelled := ex.Execute(ctx, s, faults)
	if !cancelled.Cancelled {
		t.Fatal("mid-run cancel: Cancelled = false")
	}
	if after := scrape(); after != before {
		t.Errorf("cancelled run moved the registry:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if len(cancelled.Events) != 0 {
		t.Errorf("cancelled run returned %d events: %+v", len(cancelled.Events), cancelled.Events)
	}

	res := ex.Execute(context.Background(), s, faults)
	if res.Cancelled || res.Killed != 1 || res.FaultsInjected != 1 {
		t.Fatalf("uncancelled rerun = %+v, want the dropped build killed and the crash injected", res)
	}
	if got := reg.Counter("idxflow_builds_killed_total", "").Value(); got != 1 {
		t.Errorf("builds killed after the rerun = %g, want 1", got)
	}
	if got := reg.CounterVec("idxflow_faults_injected_total", "", "kind").With(fault.ContainerCrash.String()).Value(); got != 1 {
		t.Errorf("crashes injected after the rerun = %g, want 1", got)
	}
	var kinds []provenance.Kind
	for _, e := range res.Events {
		if e.Flow != 0 {
			t.Errorf("executor stamped flow %d on %v; the caller stamps it", e.Flow, e.Kind)
		}
		kinds = append(kinds, e.Kind)
	}
	if want := []provenance.Kind{provenance.KindFaultInjected, provenance.KindBuildKilled}; !slices.Equal(kinds, want) {
		t.Errorf("rerun events %v, want %v", kinds, want)
	}
}

func TestExecuteNilContextRunsToCompletion(t *testing.T) {
	g := dataflow.New()
	a := g.Add(dataflow.Operator{Name: "a", Time: 10})
	o := schedOpts()
	s := sched.NewSchedule(g, o.Pricing, o.Spec)
	s.Append(a, 0)

	res := Execute(s, cfg())
	if res.Cancelled {
		t.Fatal("nil context run reported Cancelled")
	}
	if res.Makespan <= 0 {
		t.Errorf("makespan = %g, want > 0", res.Makespan)
	}
}
