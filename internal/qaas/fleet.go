package qaas

import (
	"sync"
	"time"

	"idxflow/internal/telemetry"
)

// fleet is the global container pool: a counting semaphore over slots with
// an audit trail (reserve/release tallies, peak occupancy) that
// check.AuditQaaS uses to prove no slot was ever double-booked. Reserve is
// the single critical section concurrent Algorithm-1 passes serialize on.
type fleet struct {
	mu   sync.Mutex
	cond *sync.Cond
	// capacity is the total slot count; inUse and peak are guarded by mu.
	capacity int
	inUse    int
	peak     int
	reserves int64
	releases int64
	// paceMS > 0 makes a release hold its reservation for paceMS
	// wall-milliseconds per billing quantum of realized makespan,
	// modeling real container occupancy (virtual time elapses instantly
	// otherwise, which would make fleet contention unmeasurable).
	paceMS  float64
	quantum float64 // billing quantum in seconds
	inUseG  *telemetry.Gauge
}

func newFleet(capacity int, paceMS, quantumSeconds float64, g *telemetry.Gauge) *fleet {
	f := &fleet{capacity: capacity, paceMS: paceMS, quantum: quantumSeconds, inUseG: g}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// reserve blocks until n slots are free, books them, and returns the
// release function the service calls with the realized makespan. n is
// clamped to the capacity defensively (Config clamps MaxContainers so a
// legitimate schedule never exceeds it).
func (f *fleet) reserve(n int) func(makespanSeconds float64) {
	if n < 0 {
		n = 0
	}
	if n > f.capacity {
		n = f.capacity
	}
	f.mu.Lock()
	for f.inUse+n > f.capacity {
		f.cond.Wait()
	}
	f.inUse += n
	f.reserves++
	if f.inUse > f.peak {
		f.peak = f.inUse
	}
	// The gauge is set under the lock, so two racing updates cannot leave
	// it at a value inUse no longer holds.
	f.inUseG.Set(float64(f.inUse))
	f.mu.Unlock()
	return func(makespanSeconds float64) {
		if f.paceMS > 0 && makespanSeconds > 0 {
			q := makespanSeconds / f.quantum
			time.Sleep(time.Duration(f.paceMS * q * float64(time.Millisecond)))
		}
		f.mu.Lock()
		f.inUse -= n
		f.releases++
		f.inUseG.Set(float64(f.inUse))
		f.cond.Broadcast()
		f.mu.Unlock()
	}
}

func (f *fleet) stats() FleetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FleetStats{
		Capacity: f.capacity,
		InUse:    f.inUse,
		Peak:     f.peak,
		Reserves: f.reserves,
		Releases: f.releases,
	}
}

// ledger is the global money books: every settlement lands under one lock
// so the per-tenant totals always sum to the global total exactly.
type ledger struct {
	mu       sync.Mutex
	global   float64
	byTenant map[string]float64
}

func newLedger() *ledger {
	return &ledger{byTenant: make(map[string]float64)}
}

// settle records quanta against tenant and returns the tenant's new total.
func (l *ledger) settle(tenant string, quanta float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.global += quanta
	l.byTenant[tenant] += quanta
	return l.byTenant[tenant]
}

func (l *ledger) books() Books {
	l.mu.Lock()
	defer l.mu.Unlock()
	by := make(map[string]float64, len(l.byTenant))
	for t, q := range l.byTenant {
		by[t] = q
	}
	return Books{Global: l.global, ByTenant: by}
}
