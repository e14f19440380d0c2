package experiments

import (
	"runtime"
	"sync"
)

// runJobs executes job(0..n-1) on a worker pool of runtime.GOMAXPROCS(0)
// goroutines (stdlib only: channels + WaitGroup). Each job is an independent
// experiment configuration — its own database, generator and telemetry
// registry — so jobs may run in any order; callers index result slots by job
// number and assemble tables in deterministic order afterwards, and the
// tables are the same at any pool size. With one worker the jobs run inline
// in order.
func runJobs(n int, job func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
