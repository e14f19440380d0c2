package sched

import "testing"

// TestWarmHitReplaysBitIdentical schedules the same graph twice on one
// skyline: the first run misses and stores, the second hits, and the
// replayed frontier is byte-identical to the computed one.
func TestWarmHitReplaysBitIdentical(t *testing.T) {
	g := randomDAG(3, 40, 5)
	sk := NewSkyline(testOpts())
	want := fingerprint(sk.Schedule(g))
	if st := sk.WarmStats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after first run: hits=%d misses=%d, want 0/1", st.Hits, st.Misses)
	}
	got := fingerprint(sk.Schedule(g))
	if got != want {
		t.Fatalf("warm hit diverged from the stored frontier:\n%s\nvs\n%s", want, got)
	}
	if st := sk.WarmStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after second run: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

// TestWarmDistinguishesOptionalMode proves Schedule and ScheduleWithOptional
// never serve each other's memo entries: the signature carries the mode.
func TestWarmDistinguishesOptionalMode(t *testing.T) {
	g := randomDAG(5, 30, 4)
	sk := NewSkyline(testOpts())
	if got, want := fingerprint(sk.Schedule(g)), fingerprint(NewSkyline(testOpts()).Schedule(g)); got != want {
		t.Fatalf("mandatory warm run diverged from cold")
	}
	if got, want := fingerprint(sk.ScheduleWithOptional(g)), fingerprint(NewSkyline(testOpts()).ScheduleWithOptional(g)); got != want {
		t.Fatalf("optional-aware warm run served the mandatory memo")
	}
	if st := sk.WarmStats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2 (modes must not share entries)", st.Hits, st.Misses)
	}
}

// TestWarmColdEquivalent is the golden cold-vs-warm property: over seeded
// random DAGs, a skyline reused across repeated submissions returns exactly
// the frontier a fresh skyline computes, on both the miss and the hit path,
// even when the caller mutates the returned schedules in between.
func TestWarmColdEquivalent(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, withOpt := range []bool{false, true} {
			g := randomDAG(seed, 35, 5)
			opts := testOpts()
			run := func(sk *Skyline) []*Schedule {
				if withOpt {
					return sk.ScheduleWithOptional(g)
				}
				return sk.Schedule(g)
			}
			want := fingerprint(run(NewSkyline(opts)))
			warm := NewSkyline(opts)
			for round := 0; round < 3; round++ {
				sky := run(warm)
				if got := fingerprint(sky); got != want {
					t.Fatalf("seed %d withOpt=%v round %d: warm diverged from cold:\n%s\nvs\n%s",
						seed, withOpt, round, want, got)
				}
				// Wipe the returned schedules: the memo hands out
				// clones, so this must not poison later lookups.
				for _, s := range sky {
					s.CopyFrom(NewSchedule(g, opts.Pricing, opts.Spec))
				}
			}
			if st := warm.WarmStats(); st.Hits == 0 {
				t.Fatalf("seed %d withOpt=%v: repeated submissions never hit the memo", seed, withOpt)
			}
		}
	}
}

// TestWarmHitSharesNoStorage: a hit's schedules are the caller's alone. The
// next miss recycles the replaced memo entry's storage; that must leave the
// hit untouched, and writing into the hit afterwards must change neither
// problem's next frontier.
func TestWarmHitSharesNoStorage(t *testing.T) {
	a, b := randomDAG(21, 30, 5), randomDAG(22, 30, 5)
	wantA := fingerprint(NewSkyline(testOpts()).ScheduleWithOptional(a))
	wantB := fingerprint(NewSkyline(testOpts()).ScheduleWithOptional(b))

	sk := NewSkyline(testOpts())
	sk.ScheduleWithOptional(a)
	hit := sk.ScheduleWithOptional(a)
	if st := sk.WarmStats(); st.Hits != 1 {
		t.Fatalf("the repeat of a did not hit: %+v", st)
	}
	other := sk.ScheduleWithOptional(b)
	if got := fingerprint(other); got != wantB {
		t.Fatalf("b after a's hit diverged from cold:\n%s\nvs\n%s", wantB, got)
	}
	if got := fingerprint(hit); got != wantA {
		t.Fatalf("running b rewrote a's hit:\n%s\nvs\n%s", wantA, got)
	}
	// CopyFrom writes into the hit's own slices, so storage shared with the
	// memo or a recycled schedule would carry b's placements there.
	for _, s := range hit {
		s.CopyFrom(other[len(other)-1])
	}
	if got := fingerprint(sk.ScheduleWithOptional(b)); got != wantB {
		t.Fatalf("b's memo hit changed after the caller wrote into a's hit:\n%s\nvs\n%s", wantB, got)
	}
	if got := fingerprint(sk.ScheduleWithOptional(a)); got != wantA {
		t.Fatalf("a after the caller wrote into its old hit diverged from cold:\n%s\nvs\n%s", wantA, got)
	}
	if st := sk.WarmStats(); st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 2/3", st.Hits, st.Misses)
	}
}

// TestWarmMetamorphicSubmissionOrder is the metamorphic property: the
// frontier computed for a graph on a reused skyline must not depend on which
// other graphs were submitted before it, in any order.
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
		sk := NewSkyline(testOpts())
		for _, gi := range order {
			got := fingerprint(sk.Schedule(randomDAG(graphs[gi], 25, 4)))
			if got != want[gi] {
				t.Fatalf("order %v: graph %d's frontier depends on submission history:\n%s\nvs\n%s",
					order, gi, want[gi], got)
			}
		}
	}
}
