// Skyline trade-off: explore the time-money Pareto frontier the skyline
// scheduler produces for a real scientific dataflow, compare it against the
// online load-balance baseline, and show how much idle time (index-build
// opportunity) each point on the frontier carries.
package main

import (
	"flag"
	"fmt"
	"log"

	"idxflow/internal/sched"
	"idxflow/internal/workload"
)

func main() {
	appName := flag.String("app", "cybershake", "montage | ligo | cybershake")
	flag.Parse()

	db, err := workload.NewFileDB(1)
	if err != nil {
		log.Fatal(err)
	}
	gen := workload.NewGenerator(db, 2)
	var app workload.App
	found := false
	for _, a := range workload.Apps {
		if a.String() == *appName {
			app, found = a, true
		}
	}
	if !found {
		log.Fatalf("unknown app %q", *appName)
	}
	flow := gen.Flow(app, 0, 0)
	g := flow.Graph
	fmt.Printf("%s: %d operators, critical path %.0fs\n\n",
		flow.Name, g.Len(), g.CriticalPath())

	opts := sched.DefaultOptions()
	opts.MaxSkyline = 12
	skyline := sched.NewSkyline(opts).Schedule(g)

	q := opts.Pricing.QuantumSeconds
	fmt.Println("skyline (Pareto frontier) of schedules:")
	fmt.Println("  time(q)  money(q)  containers  idle(q)  max-contig-idle(q)")
	for _, s := range skyline {
		fmt.Printf("  %7.2f  %8.0f  %10d  %7.2f  %18.2f\n",
			s.Makespan()/q, s.MoneyQuanta(), s.Containers(),
			s.Fragmentation()/q, s.MaxSequentialIdle()/q)
	}

	online := sched.OnlineLoadBalance(g, opts)
	fmt.Printf("\nonline load-balance baseline: time %.2fq, money %.0fq, %d containers\n",
		online.Makespan()/q, online.MoneyQuanta(), online.Containers())

	fast, cheap := sched.Fastest(skyline), skyline[0]
	for _, s := range skyline {
		if s.MoneyQuanta() < cheap.MoneyQuanta() {
			cheap = s
		}
	}
	fmt.Printf("\nfastest offline schedule beats online by %+.0f%% time at %+.0f%% money\n",
		(online.Makespan()/fast.Makespan()-1)*100,
		(online.MoneyQuanta()/fast.MoneyQuanta()-1)*100)
	fmt.Printf("cheapest offline schedule: %.0fx cheaper than fastest, %.1fx slower\n",
		fast.MoneyQuanta()/cheap.MoneyQuanta(), cheap.Makespan()/fast.Makespan())
}
