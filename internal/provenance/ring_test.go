package provenance

import (
	"fmt"
	"runtime"
	"testing"
)

// ringModel is the oracle for the chunked ring: every event ever appended,
// in a plain slice; the ring must hold its last min(len, cap) entries.
type ringModel struct {
	cap int
	all []Event
}

func (m *ringModel) append(e Event) {
	e.Seq = uint64(len(m.all))
	m.all = append(m.all, e)
}

func (m *ringModel) held() []Event {
	if len(m.all) <= m.cap {
		return m.all
	}
	return m.all[len(m.all)-m.cap:]
}

func (m *ringModel) selected(f Filter, last int) []Event {
	var out []Event
	held := m.held()
	for i := range held {
		if f.matches(&held[i]) {
			out = append(out, held[i])
		}
	}
	if last >= 0 && len(out) > last {
		out = out[len(out)-last:]
	}
	return out
}

// sameEvents compares the fields these tests set (reflect.DeepEqual over
// tens of thousands of Events is what made the test slow) and treats nil
// and empty alike, as callers of Snapshot/Select do.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Kind != b[i].Kind || a[i].Flow != b[i].Flow || a[i].T != b[i].T {
			return false
		}
	}
	return true
}

func checkAgainstModel(t *testing.T, r *Recorder, m *ringModel) {
	t.Helper()
	n := len(m.all)
	held := m.held()
	if r.Len() != len(held) || r.Total() != uint64(n) || r.Dropped() != uint64(n-len(held)) {
		t.Fatalf("after %d appends: Len/Total/Dropped = %d/%d/%d, want %d/%d/%d",
			n, r.Len(), r.Total(), r.Dropped(), len(held), n, n-len(held))
	}
	if got := r.Snapshot(); !sameEvents(got, held) {
		t.Fatalf("after %d appends: Snapshot differs from the model (%d vs %d events)", n, len(got), len(held))
	}
	flow := Filter{ByFlow: true, Flow: 3}
	if got := r.FlowEvents(3); !sameEvents(got, m.selected(flow, -1)) {
		t.Fatalf("after %d appends: FlowEvents(3) differs from the model", n)
	}
	both := Filter{ByFlow: true, Flow: 3, ByKind: true, Kind: KindIndexRejected}
	for _, last := range []int{0, 7, m.cap + 1} {
		if got := r.Select(Filter{}, last); !sameEvents(got, m.selected(Filter{}, last)) {
			t.Fatalf("after %d appends: Select(all, %d) differs from the model", n, last)
		}
		if got := r.Select(both, last); !sameEvents(got, m.selected(both, last)) {
			t.Fatalf("after %d appends: Select(flow+kind, %d) differs from the model", n, last)
		}
	}
}

// TestRingMatchesSliceModel drives rings whose capacity is below, at and
// just past a chunk through fill, wrap, a second wrap and refills that
// must not allocate, against the plain-slice model.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, capacity := range []int{1, 5, chunkEvents, chunkEvents + 1, 10000} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			r := NewRecorder(capacity)
			m := &ringModel{cap: capacity}
			// Comparing is O(capacity), so the big rings are compared next
			// to every chunk and capacity boundary and on a prime stride.
			due := func(n int) bool {
				if capacity <= 5 {
					return true
				}
				for _, edge := range []int{n % capacity, n % chunkEvents} {
					if edge <= 1 || edge == capacity-1 || edge == chunkEvents-1 {
						return true
					}
				}
				return n%4999 == 0
			}
			fill := func(count int) {
				for i := 0; i < count; i++ {
					e := Event{Kind: Kind(i % int(numKinds)), Flow: FlowID(i % 5), T: float64(i)}
					r.Append(e)
					m.append(e)
					if due(len(m.all)) {
						checkAgainstModel(t, r, m)
					}
				}
				checkAgainstModel(t, r, m)
			}
			checkAgainstModel(t, r, m) // empty
			fill(capacity)             // fill
			fill(capacity/2 + 1)       // wrap
			fill(2*capacity + 3)       // wrap again, twice over

			// An allocated ring keeps its chunks: wrapping it again writes
			// into the same memory.
			before := make([]*Event, len(r.chunks))
			for i, c := range r.chunks {
				before[i] = &c[0]
			}
			refill := func() {
				for i := 0; i < capacity+2; i++ {
					r.Append(Event{Kind: KindFlowAdmitted})
				}
			}
			if allocs := testing.AllocsPerRun(1, refill); allocs != 0 {
				t.Errorf("refilling an allocated ring allocated %v times", allocs)
			}
			for i, c := range r.chunks {
				if &c[0] != before[i] {
					t.Errorf("chunk %d was reallocated by a refill", i)
				}
			}
			for i := 0; i < 2*(capacity+2); i++ { // AllocsPerRun ran refill twice
				m.append(Event{Kind: KindFlowAdmitted})
			}
			checkAgainstModel(t, r, m)
			fill(capacity + 2)
		})
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRecorderAllocatesWhatItHolds: the capacity is a bound, not a
// reservation. A default-sized server ring (-prov-cap 262144, 60 MB of
// Events when full) that saw ten events holds one chunk.
func TestRecorderAllocatesWhatItHolds(t *testing.T) {
	base := liveHeap()
	r := NewRecorder(262144)
	for i := 0; i < 10; i++ {
		r.Append(Event{Kind: KindFlowAdmitted, Flow: FlowID(i)})
	}
	grown := int64(liveHeap()) - int64(base)
	if r.Len() != 10 || r.Cap() != 262144 {
		t.Fatalf("Len/Cap = %d/%d", r.Len(), r.Cap())
	}
	if grown > 2<<20 {
		t.Errorf("a 262144-slot recorder holding 10 events keeps %d bytes live, want < 2 MB", grown)
	}
}

// TestAppendOnFullRingDoesNotAllocate: once every chunk exists an append
// overwrites a slot in place.
func TestAppendOnFullRingDoesNotAllocate(t *testing.T) {
	r := fullRing(chunkEvents + 100)
	e := Event{Kind: KindIndexRejected, Flow: 7, Name: "lineitem/orderkey", TimeGain: -1}
	if allocs := testing.AllocsPerRun(5000, func() { r.Append(e) }); allocs != 0 {
		t.Errorf("Append on a full ring allocates %v times per call, want 0", allocs)
	}
	if r.Dropped() == 0 {
		t.Fatal("the ring never wrapped")
	}
}

// TestSelectCopiesOnlyWhatItReturns: one flow's events out of a ring of
// 60,000 cost that flow's events, not a copy of the ring (14 MB).
func TestSelectCopiesOnlyWhatItReturns(t *testing.T) {
	r := NewRecorder(1 << 16)
	for i := 0; i < 60000; i++ {
		r.Append(Event{Kind: KindIndexRejected, Flow: FlowID(1 + i/230)})
	}
	allocated := func(f func()) uint64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return b.TotalAlloc - a.TotalAlloc
	}
	var got []Event
	if n := allocated(func() { got = r.FlowEvents(100) }); len(got) != 230 || n > 256<<10 {
		t.Errorf("FlowEvents: %d events for %d bytes allocated, want 230 events under 256 kB", len(got), n)
	}
	if n := allocated(func() { got = r.Select(Filter{}, 50) }); len(got) != 50 || got[49].Seq != 59999 || n > 32<<10 {
		t.Errorf("Select(all, 50): %d events for %d bytes allocated, want the last 50 under 32 kB", len(got), n)
	}
}

func fullRing(capacity int) *Recorder {
	r := NewRecorder(capacity)
	for i := 0; i < capacity; i++ {
		r.Append(Event{Kind: KindIndexAdopted})
	}
	return r
}

// BenchmarkRecorderAppend is the steady state of a tenant whose ring has
// filled: the ledger records that it stays at 0 allocs/op.
func BenchmarkRecorderAppend(b *testing.B) {
	r := fullRing(DefaultCapacity)
	e := Event{Kind: KindIndexRejected, Flow: 7, Name: "lineitem/orderkey", TimeGain: -1, Records: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Append(e)
	}
}
