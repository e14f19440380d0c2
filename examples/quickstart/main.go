// Quickstart: build a small dataflow, schedule it on quantum-priced cloud
// containers with the skyline scheduler, interleave an index build into the
// idle slots, execute it, and read what the run did off its result — the
// core loop of the paper in ~100 lines.
package main

import (
	"fmt"
	"log"

	"idxflow/internal/dataflow"
	"idxflow/internal/interleave"
	"idxflow/internal/sched"
	"idxflow/internal/sim"
)

func main() {
	// A small ETL-style dataflow: two partition scans feed a join whose
	// result is aggregated (the Fig. 2a shape).
	g := dataflow.New()
	scanA := g.Add(dataflow.Operator{
		Name: "scan A.0", Kind: dataflow.KindRangeSelect,
		CPU: 1, Memory: 0.25, Time: 40, Reads: []string{"A/0"},
	})
	scanB := g.Add(dataflow.Operator{
		Name: "scan A.1", Kind: dataflow.KindRangeSelect,
		CPU: 1, Memory: 0.25, Time: 45, Reads: []string{"A/1"},
	})
	join := g.Add(dataflow.Operator{
		Name: "join", Kind: dataflow.KindJoin, CPU: 1, Memory: 0.5, Time: 30,
	})
	agg := g.Add(dataflow.Operator{
		Name: "aggregate", Kind: dataflow.KindAggregate, CPU: 1, Memory: 0.25, Time: 10,
	})
	must(g.Connect(scanA, join, 64))
	must(g.Connect(scanB, join, 64))
	must(g.Connect(join, agg, 8))

	// An index-build operator for a future dataflow, marked optional: the
	// scheduler may drop it, and the executor runs it at priority -1.
	build := g.Add(dataflow.Operator{
		Name: "build idx(A.0/orderkey)", Kind: dataflow.KindBuildIndex,
		CPU: 1, Memory: 0.25, Time: 25, Priority: -1, Optional: true,
		BuildsIndex: "idx/A/orderkey/0",
	})

	// Schedule: the skyline scheduler returns the Pareto frontier of
	// (execution time, monetary cost) schedules.
	opts := sched.DefaultOptions()
	opts.MaxContainers = 4
	sk := sched.NewSkyline(opts)
	skyline := sk.Schedule(g)
	fmt.Println("skyline of schedules (time vs money):")
	for i, s := range skyline {
		fmt.Printf("  #%d: %5.1f s, %2.0f quanta, %d containers\n",
			i, s.Makespan(), s.MoneyQuanta(), s.Containers())
	}

	// Pick the fastest schedule and pack the index build into its idle
	// slots with the LP interleaving algorithm: time and money must not
	// change.
	chosen := sched.Fastest(skyline)
	beforeIdle := chosen.Fragmentation()
	placed := interleave.PackSchedule(chosen, map[dataflow.OpID]float64{build: 10})
	fmt.Printf("\ninterleaved %d build op(s); idle time %.0fs -> %.0fs; makespan still %.1fs\n",
		len(placed), beforeIdle, chosen.Fragmentation(), chosen.Makespan())

	// Execute: the run is fault-free (nil faults) and cannot be cancelled
	// (nil ctx). Its Result is the one record of what it did, with one
	// entry per operator indexed by id; a service derives every executor
	// metric from it.
	exec := sim.New(sim.Config{Pricing: opts.Pricing, Spec: opts.Spec})
	res := exec.Execute(nil, chosen, nil)
	completed, killed := 0, 0
	for id, r := range res.Ops {
		if r.Killed {
			killed++
		} else if r.Completed && g.Op(dataflow.OpID(id)).Optional {
			completed++
		}
	}
	fmt.Printf("\nexecution: makespan %.1fs, %g quanta, %d build completed, %d killed\n",
		res.Makespan, res.MoneyQuanta, completed, killed)
	for _, a := range chosen.Assignments() {
		r := res.Ops[a.Op]
		status := "done"
		if r.Killed {
			status = "KILLED"
		}
		fmt.Printf("  c%d  %-24s [%6.1f, %6.1f]  %s\n",
			a.Container, g.Op(a.Op).Name, r.Start, r.End, status)
	}

	fmt.Printf("\nidle-slot seconds used for builds: %.0f of %.0f discovered; %.0f paid but idle\n",
		beforeIdle-chosen.Fragmentation(), beforeIdle, res.Fragmentation)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
