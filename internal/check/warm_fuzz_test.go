package check

import (
	"testing"

	"idxflow/internal/dataflow"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
)

// FuzzWarmFrontier drives one reused skyline through a fuzzed interleaving
// of submissions, faulted executions, invalidations and caller-side
// mutations of returned schedules, and checks after every submission that
// its frontier equals, to the bit, a fresh skyline's and SkylineReference's
// and passes the frontier audit.
func FuzzWarmFrontier(f *testing.F) {
	f.Add(int64(1), uint64(0), uint64(0))
	f.Add(int64(4), uint64(1), uint64(0x2d))
	f.Add(int64(9), uint64(2), uint64(120))
	f.Add(int64(-6), uint64(7), uint64(0xffff))
	f.Add(int64(31), uint64(5), uint64(0b101101110))
	// The second argument is unused; it stays so the committed corpus files
	// still decode.
	f.Fuzz(func(t *testing.T, seed int64, _, mix uint64) {
		sc := NewScenario(seed, float64(mix%150)/100)
		warm := sched.NewSkyline(sc.Opts)

		// Three graphs to cycle through; repeats exercise the memo's hit
		// path, switches its replacement path.
		gcfg := GraphConfig{
			Ops:       2 + int(mix%15),
			Layers:    1 + int(mix%4),
			EdgeProb:  float64(mix%97) / 96,
			MaxTime:   25 + float64(mix%60),
			MaxEdgeMB: float64(mix % 100),
			Builds:    int(mix % 4),
		}
		graphs := []*dataflow.Graph{
			sc.Graph,
			Graph(Layered, gcfg, seed+1),
			Graph(RandomOrder, gcfg, seed+2),
		}

		for step := 0; step < 8; step++ {
			bits := mix >> (2 * step)
			g := graphs[bits%3]
			withOpt := bits&0b100 != 0

			run := func(sk *sched.Skyline) []*sched.Schedule {
				if withOpt {
					return sk.ScheduleWithOptional(g)
				}
				return sk.Schedule(g)
			}
			wsky := run(warm)
			if err := DiffFrontiers(wsky, run(sched.NewSkyline(sc.Opts))); err != nil {
				t.Fatalf("seed %d step %d (withOpt=%v): warm frontier diverged from cold: %v",
					seed, step, withOpt, err)
			}
			if err := DiffFrontiers(wsky, SkylineReference(g, sc.Opts, withOpt)); err != nil {
				t.Fatalf("seed %d step %d (withOpt=%v): frontier against the reference: %v",
					seed, step, withOpt, err)
			}
			if err := AuditFrontier(wsky); err != nil {
				t.Fatalf("seed %d step %d: warm frontier: %v", seed, step, err)
			}
			if len(wsky) == 0 {
				continue
			}
			chosen := wsky[int(bits>>3)%len(wsky)]

			// Interleave the bookkeeping the service performs between
			// submissions — none of it may change future frontiers.
			switch bits % 4 {
			case 0: // faulted execution of the chosen schedule
				sim.New(sim.Config{Pricing: sc.Opts.Pricing, Spec: sc.Opts.Spec}).Execute(nil, chosen, sc.Plan.From(0))
			case 1: // caller repairs the chosen schedule in place
				chosen.Repair(nil, 0, 0, topoRanks(chosen.Graph))
			case 2: // caller wipes the returned clones outright
				for _, s := range wsky {
					s.CopyFrom(sched.NewSchedule(g, sc.Opts.Pricing, sc.Opts.Spec))
				}
			case 3: // caller appends an unplaced op onto a fresh container
				for _, id := range g.Ops() {
					if _, ok := chosen.Assignment(id); ok {
						continue
					}
					chosen.Append(id, chosen.NumSlots())
					break
				}
			}
		}
	})
}

// topoRanks returns each operator's position in g's topological order,
// indexed by OpID: the rank Schedule.Repair takes.
func topoRanks(g *dataflow.Graph) []int32 {
	topo, err := g.TopoSort()
	if err != nil {
		panic(err)
	}
	rank := make([]int32, len(topo))
	for i, id := range topo {
		rank[id] = int32(i)
	}
	return rank
}
