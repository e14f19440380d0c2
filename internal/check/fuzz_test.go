package check

import (
	"math"
	"testing"

	"idxflow/internal/dataflow"
	"idxflow/internal/gain"
	"idxflow/internal/interleave"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
)

// The fuzz targets decode raw fuzzer inputs through the deterministic
// generators and drive the result through the invariant auditor: any input
// the fuzzer invents becomes a complete scenario, and every invariant in
// the catalog acts as an oracle. Committed corpora under testdata/fuzz
// replay as regular tests in every `go test` run.

// FuzzExecute schedules and replays a generated scenario, optionally under
// a generated fault plan, and audits the realized execution.
func FuzzExecute(f *testing.F) {
	f.Add(int64(1), uint64(0))
	f.Add(int64(7), uint64(0))
	f.Add(int64(8), uint64(10))
	f.Add(int64(25), uint64(25))
	f.Add(int64(-3), uint64(120))
	f.Fuzz(func(t *testing.T, seed int64, rate uint64) {
		sc := NewScenario(seed, float64(rate%200)/100)
		skyline := sched.NewSkyline(sc.Opts).Schedule(sc.Graph)
		if err := AuditFrontier(skyline); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, s := range skyline {
			ac := AuditConfig{Exact: true}
			if sc.Plan != nil && len(sc.Plan.Events) > 0 {
				ac = AuditConfig{Faults: sc.Plan.Events}
			}
			res := sim.New(sim.Config{Pricing: sc.Opts.Pricing, Spec: sc.Opts.Spec}).Execute(nil, s, ac.Faults)
			if err := Audit(res, s, ac); err != nil {
				t.Fatalf("seed %d schedule %d: %v", seed, i, err)
			}
		}
	})
}

// FuzzSkyline builds a graph directly from fuzzed shape parameters,
// schedules it both without and with optional operators, audits the
// frontiers and holds each to SkylineReference's, member by member.
func FuzzSkyline(f *testing.F) {
	f.Add(int64(1), uint64(12), uint64(4), uint64(80))
	f.Add(int64(2), uint64(1), uint64(1), uint64(0))
	f.Add(int64(9), uint64(19), uint64(6), uint64(255))
	f.Add(int64(-11), uint64(7), uint64(2), uint64(128))
	f.Fuzz(func(t *testing.T, seed int64, ops, layers, edge uint64) {
		cfg := GraphConfig{
			Ops:       1 + int(ops%20),
			Layers:    1 + int(layers%6),
			EdgeProb:  float64(edge%256) / 255,
			MaxTime:   30 + float64(seed%7)*13,
			MaxEdgeMB: float64(edge % 150),
			Builds:    int(ops % 4),
		}
		shape := Layered
		if seed%2 != 0 {
			shape = RandomOrder
		}
		g := Graph(shape, cfg, seed)
		if err := g.Validate(); err != nil {
			t.Fatalf("generator produced invalid graph: %v", err)
		}
		opts := Options(Pricing(seed+1), seed+2)
		mandatory := sched.NewSkyline(opts).Schedule(g)
		if err := AuditFrontier(mandatory); err != nil {
			t.Fatalf("mandatory frontier: %v", err)
		}
		if err := DiffFrontiers(mandatory, SkylineReference(g, opts, false)); err != nil {
			t.Fatalf("mandatory frontier against the reference: %v", err)
		}
		online := sched.NewSkyline(opts).ScheduleWithOptional(g)
		for i, s := range online {
			if err := AuditSchedule(s); err != nil {
				t.Fatalf("optional-aware schedule %d: %v", i, err)
			}
		}
		if err := DiffFrontiers(online, SkylineReference(g, opts, true)); err != nil {
			t.Fatalf("optional-aware frontier against the reference: %v", err)
		}
	})
}

// FuzzInterleave packs optional builds into every frontier member of a
// generated scenario and checks the §5.3 guarantee: mandatory placements,
// makespan and cost are untouched, and both the packed plan and its replay
// pass the audit.
func FuzzInterleave(f *testing.F) {
	f.Add(int64(3), uint64(1))
	f.Add(int64(5), uint64(40))
	f.Add(int64(14), uint64(200))
	f.Fuzz(func(t *testing.T, seed int64, gainScale uint64) {
		sc := NewScenario(seed, 0)
		gains := map[dataflow.OpID]float64{}
		for _, id := range sc.Graph.Ops() {
			if sc.Graph.Op(id).Optional {
				gains[id] = float64(gainScale%1000) / 10
			}
		}
		for i, s := range sched.NewSkyline(sc.Opts).Schedule(sc.Graph) {
			wantMS, wantMQ := s.Makespan(), s.MoneyQuanta()
			before := map[dataflow.OpID]sched.Assignment{}
			for _, a := range s.Assignments() {
				before[a.Op] = a
			}
			interleave.PackSchedule(s, gains)
			for _, a := range s.Assignments() {
				if sc.Graph.Op(a.Op).Optional {
					continue
				}
				if b := before[a.Op]; b != a {
					t.Fatalf("schedule %d: packing moved mandatory op %d", i, a.Op)
				}
			}
			if got := s.Makespan(); math.Abs(got-wantMS) > 1e-9*math.Max(1, wantMS) {
				t.Fatalf("schedule %d: packing changed makespan %g -> %g", i, wantMS, got)
			}
			if got := s.MoneyQuanta(); math.Abs(got-wantMQ) > 1e-9*math.Max(1, wantMQ) {
				t.Fatalf("schedule %d: packing changed cost %g -> %g", i, wantMQ, got)
			}
			if err := AuditSchedule(s); err != nil {
				t.Fatalf("schedule %d after packing: %v", i, err)
			}
			res := sim.Execute(s, sim.Config{Pricing: sc.Opts.Pricing, Spec: sc.Opts.Spec})
			if err := Audit(res, s, AuditConfig{Exact: true}); err != nil {
				t.Fatalf("schedule %d replay: %v", i, err)
			}
		}
	})
}

// FuzzGainWindow drives the Eq. 2-5 evaluator with fuzzed fading, window
// and evaluation-time parameters over generated update streams and audits
// the model's internal consistency at several time points.
func FuzzGainWindow(f *testing.F) {
	f.Add(int64(1), uint64(0), uint64(16), uint64(50))
	f.Add(int64(4), uint64(24), uint64(1), uint64(0))
	f.Add(int64(9), uint64(255), uint64(300), uint64(999))
	f.Fuzz(func(t *testing.T, seed int64, window, fade, alphaRaw uint64) {
		p := gain.Params{
			Alpha:   float64(alphaRaw%101) / 100,
			FadeD:   float64(fade%64) / 4, // includes 0: hard cutoff fading
			WindowW: float64(window % 32), // includes 0: unwindowed
			Pricing: Pricing(seed),
		}
		e := gain.NewEvaluator(p)
		cands := CostGrid(1+int(seed%7+6)%7, seed+50)
		horizon := 50 * p.Pricing.QuantumSeconds
		for i, c := range cands {
			for _, rec := range UpdateStream(3+int(window%10), horizon, seed+int64(i)) {
				e.History.Add(c.Name, rec)
			}
		}
		for _, now := range []float64{0, horizon / 3, horizon, 2 * horizon} {
			if err := AuditGain(e, cands, now); err != nil {
				t.Fatalf("now=%g: %v", now, err)
			}
		}
	})
}
