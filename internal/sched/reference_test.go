package sched_test

import (
	"testing"

	"idxflow/internal/check"
	"idxflow/internal/cloud"
	"idxflow/internal/sched"
)

// TestSkylineDeterministicHeterogeneous repeats the determinism property
// with a heterogeneous VM pool, where fresh containers multiply the
// candidate count by the number of types, and holds each frontier, with
// and without index builds, to check.SkylineReference's, member by member.
func TestSkylineDeterministicHeterogeneous(t *testing.T) {
	opts := sched.TestOpts()
	opts.Types = cloud.DefaultVMTypes()
	for _, seed := range []int64{7, 3} {
		g := sched.RandomDAG(seed, 30, 4)
		for _, withOpt := range []bool{false, true} {
			run := func() []*sched.Schedule {
				if withOpt {
					return sched.NewSkyline(opts).ScheduleWithOptional(g)
				}
				return sched.NewSkyline(opts).Schedule(g)
			}
			sky := run()
			if len(sky) == 0 {
				t.Fatalf("seed %d (withOpt=%v): empty heterogeneous skyline", seed, withOpt)
			}
			if want, got := sched.Fingerprint(sky), sched.Fingerprint(run()); got != want {
				t.Fatalf("seed %d (withOpt=%v): heterogeneous skyline diverged between runs:\n%s\nvs\n%s", seed, withOpt, want, got)
			}
			if err := check.DiffFrontiers(sky, check.SkylineReference(g, opts, withOpt)); err != nil {
				t.Fatalf("seed %d (withOpt=%v): frontier against the reference: %v", seed, withOpt, err)
			}
		}
	}
}
