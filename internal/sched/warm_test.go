package sched

import (
	"testing"

	"idxflow/internal/telemetry"
)

// warmOpts returns testOpts with a fresh warm-start state attached.
func warmOpts() Options {
	o := testOpts()
	o.Warm = NewWarm(nil)
	return o
}

// TestWarmHitReplaysBitIdentical schedules the same graph twice through one
// warm state: the first run misses and stores, the second hits, and the
// replayed frontier is byte-identical to the computed one.
func TestWarmHitReplaysBitIdentical(t *testing.T) {
	g := randomDAG(3, 40, 5)
	o := warmOpts()
	want := fingerprint(NewSkyline(o).Schedule(g))
	if st := o.Warm.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after first run: hits=%d misses=%d, want 0/1", st.Hits, st.Misses)
	}
	got := fingerprint(NewSkyline(o).Schedule(g))
	if got != want {
		t.Fatalf("warm hit diverged from the stored frontier:\n%s\nvs\n%s", want, got)
	}
	if st := o.Warm.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after second run: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

// TestWarmDistinguishesOptionalMode proves Schedule and ScheduleWithOptional
// never serve each other's memo entries: the signature carries the mode.
func TestWarmDistinguishesOptionalMode(t *testing.T) {
	g := randomDAG(5, 30, 4)
	o := warmOpts()
	cold := testOpts()
	if got, want := fingerprint(NewSkyline(o).Schedule(g)), fingerprint(NewSkyline(cold).Schedule(g)); got != want {
		t.Fatalf("mandatory warm run diverged from cold")
	}
	if got, want := fingerprint(NewSkyline(o).ScheduleWithOptional(g)), fingerprint(NewSkyline(cold).ScheduleWithOptional(g)); got != want {
		t.Fatalf("optional-aware warm run served the mandatory memo")
	}
	if st := o.Warm.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2 (modes must not share entries)", st.Hits, st.Misses)
	}
}

// TestWarmColdEquivalent is the golden cold-vs-warm property: over seeded
// random DAGs, a scheduler carrying warm state across repeated submissions
// returns exactly the frontier a from-scratch scheduler computes, on both
// the miss and the hit path, even when the caller mutates the returned
// schedules in between.
func TestWarmColdEquivalent(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, withOpt := range []bool{false, true} {
			g := randomDAG(seed, 35, 5)
			cold := testOpts()
			warm := warmOpts()
			run := func(o Options) []*Schedule {
				if withOpt {
					return NewSkyline(o).ScheduleWithOptional(g)
				}
				return NewSkyline(o).Schedule(g)
			}
			want := fingerprint(run(cold))
			for round := 0; round < 3; round++ {
				sky := run(warm)
				if got := fingerprint(sky); got != want {
					t.Fatalf("seed %d withOpt=%v round %d: warm diverged from cold:\n%s\nvs\n%s",
						seed, withOpt, round, want, got)
				}
				// Wipe the returned schedules: the memo hands out
				// clones, so this must not poison later lookups.
				for _, s := range sky {
					s.CopyFrom(NewSchedule(g, cold.Pricing, cold.Spec))
				}
				warm.Warm.NoteAdoption(sky[0])
			}
			if st := warm.Warm.Stats(); st.Hits == 0 {
				t.Fatalf("seed %d withOpt=%v: repeated submissions never hit the memo", seed, withOpt)
			}
		}
	}
}

// TestWarmMetamorphicSubmissionOrder is the metamorphic property: the
// frontier computed for a graph through a shared warm state must not depend
// on which other graphs were submitted before it, in any order.
func TestWarmMetamorphicSubmissionOrder(t *testing.T) {
	graphs := []int64{11, 12, 13, 14}
	want := make([]string, len(graphs))
	for i, seed := range graphs {
		want[i] = fingerprint(NewSkyline(testOpts()).Schedule(randomDAG(seed, 25, 4)))
	}
	orders := [][]int{
		{0, 1, 2, 3, 0, 1, 2, 3},
		{3, 2, 1, 0, 3, 2, 1, 0},
		{0, 0, 1, 1, 2, 2, 3, 3},
		{2, 0, 3, 1, 1, 3, 0, 2},
	}
	for _, order := range orders {
		o := warmOpts()
		for _, gi := range order {
			got := fingerprint(NewSkyline(o).Schedule(randomDAG(graphs[gi], 25, 4)))
			if got != want[gi] {
				t.Fatalf("order %v: graph %d's frontier depends on submission history:\n%s\nvs\n%s",
					order, gi, want[gi], got)
			}
		}
	}
}

// TestWarmIdleHint: adoption carries the adopted schedule's idle-slot
// capacity into the next fresh schedule as a sizing hint (never shrinking
// it), and a nil Warm is inert everywhere the service calls it.
func TestWarmIdleHint(t *testing.T) {
	g := randomDAG(7, 30, 0)
	o := warmOpts()
	sky := NewSkyline(o).Schedule(g)
	w := o.Warm

	adopted := sky[0]
	adopted.idleCap = 17
	w.NoteAdoption(adopted)
	fresh := NewSchedule(g, o.Pricing, o.Spec)
	w.seedHints(fresh)
	if fresh.idleCap != 17 {
		t.Fatalf("seeded idle capacity = %d, want the adopted schedule's 17", fresh.idleCap)
	}
	roomy := NewSchedule(g, o.Pricing, o.Spec)
	roomy.idleCap = 40
	w.seedHints(roomy)
	if roomy.idleCap != 40 {
		t.Fatalf("hint shrank a larger capacity to %d", roomy.idleCap)
	}

	var nw *Warm
	nw.NoteAdoption(sky[0])
	nw.seedHints(sky[0])
	if s := nw.Stats(); s != (WarmStats{}) {
		t.Fatalf("nil Warm stats = %+v, want zero", s)
	}
}

// TestWarmTelemetryCounters proves the exported counters move with the memo.
func TestWarmTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	o := testOpts()
	o.Warm = NewWarm(reg)
	g := randomDAG(9, 20, 0)
	NewSkyline(o).Schedule(g)
	NewSkyline(o).Schedule(g) // hit
	if v := reg.Counter("idxflow_sched_warm_hits_total", "").Value(); v != 1 {
		t.Errorf("idxflow_sched_warm_hits_total = %g, want 1", v)
	}
}
