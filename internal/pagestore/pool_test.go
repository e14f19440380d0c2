package pagestore

import (
	"encoding/binary"
	"path/filepath"
	"testing"

	"idxflow/internal/tpch"
)

// stampedFile returns a page file whose page i holds the single record
// uint64(i), so a frame that shows the wrong page is told apart by content.
func stampedFile(tb testing.TB, pages int) *File {
	tb.Helper()
	f, err := Create(filepath.Join(tb.TempDir(), "stamped.pages"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.Close() })
	var p Page
	var rec [8]byte
	for i := 0; i < pages; i++ {
		p.Reset()
		binary.LittleEndian.PutUint64(rec[:], uint64(i))
		if _, ok := insert(&p, rec[:]); !ok {
			tb.Fatal("stamp does not fit an empty page")
		}
		if _, err := f.Append(&p); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

func stamp(tb testing.TB, p *Page) int {
	tb.Helper()
	rec, ok := p.Get(0)
	if !ok || len(rec) != 8 {
		tb.Fatalf("page has no stamp (ok=%v, %d bytes)", ok, len(rec))
	}
	return int(binary.LittleEndian.Uint64(rec))
}

// A pool a quarter the size of its table recycles a frame on nearly every
// get; both layouts must still decode exactly what was written, on the
// first pass (frames being allocated, then recycled) and the second (every
// frame a recycled one). Every row either pass yields is kept and compared
// again after both scans end, when each frame has held many other pages
// since: a Comment that aliased its frame would read another page's bytes.
func TestScanThroughRecycledFrames(t *testing.T) {
	rows := tpch.Generate(3000.0/tpch.RowsPerScale, 7)
	rows[0].Comment = ""
	rows[len(rows)/2].Comment = ""
	tab, err := CreateTable(filepath.Join(t.TempDir(), "rows.pages"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	for i, r := range rows {
		if i == 1 || i == len(rows)/3 {
			if _, ok := insert(&tab.cur, nil); !ok { // a dead slot
				t.Fatal("dead slot does not fit the write page")
			}
		}
		if _, err := tab.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if tab.Pages() < 4*tab.pool.frames {
		t.Fatalf("table has %d pages, want at least 4x its %d frames", tab.Pages(), tab.pool.frames)
	}
	var kept [2][]tpch.Row
	for pass := range kept {
		i := 0
		err := tab.Scan(func(_ RID, r tpch.Row) bool {
			if r != rows[i] {
				t.Fatalf("pass %d row %d: got %+v, want %+v", pass, i, r, rows[i])
			}
			if len(tab.pool.byID) > tab.pool.frames {
				t.Fatalf("pass %d: %d pages resident in %d frames", pass, len(tab.pool.byID), tab.pool.frames)
			}
			kept[pass] = append(kept[pass], r)
			i++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != len(rows) {
			t.Fatalf("pass %d scanned %d rows, want %d", pass, i, len(rows))
		}
	}
	for pass, got := range kept {
		for i, r := range got {
			if r != rows[i] {
				t.Fatalf("pass %d row %d after both scans: got %+v, want %+v", pass, i, r, rows[i])
			}
		}
	}
	if hits, misses := tab.PoolStats(); hits != 0 || misses != int64(2*tab.Pages()) {
		t.Errorf("two sequential scans: %d hits %d misses, want 0 and %d", hits, misses, 2*tab.Pages())
	}

	ct, err := CreateColumnTable(filepath.Join(t.TempDir(), "cols.pages"), 2,
		ColSpec{Name: "orderkey", Width: 8}, ColSpec{Name: "quantity", Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	keys := make([]int64, len(rows))
	qty := make([]int64, len(rows))
	for i, r := range rows {
		keys[i], qty[i] = r.OrderKey, int64(r.Quantity)
	}
	if err := ct.AppendBatch(keys, qty); err != nil {
		t.Fatal(err)
	}
	if err := ct.Flush(); err != nil {
		t.Fatal(err)
	}
	if ct.Pages() < 4*ct.pool.frames {
		t.Fatalf("column table has %d pages, want at least 4x its %d frames", ct.Pages(), ct.pool.frames)
	}
	for pass := 0; pass < 2; pass++ {
		for ci, want := range [][]int64{keys, qty} {
			err := ct.ScanColumn(ci, func(base int64, block []int64) bool {
				for j, v := range block {
					if v != want[base+int64(j)] {
						t.Fatalf("pass %d column %d row %d: got %d, want %d", pass, ci, base+int64(j), v, want[base+int64(j)])
					}
				}
				return len(ct.pool.byID) <= ct.pool.frames
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(ct.pool.byID) > ct.pool.frames {
				t.Fatalf("%d pages resident in %d frames", len(ct.pool.byID), ct.pool.frames)
			}
		}
	}
}

// Append encodes into the write page and Scan decodes a page at a time:
// after the first page an append allocates nothing, and a scan allocates
// at most once per page, for the page's comment string.
func TestRowPathAllocations(t *testing.T) {
	rows := tpch.Generate(2000.0/tpch.RowsPerScale, 3)
	tab, err := CreateTable(filepath.Join(t.TempDir(), "rows.pages"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	i := 0
	appendNext := func() {
		if _, err := tab.Append(rows[i%len(rows)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for tab.Pages() == 0 {
		appendNext()
	}
	if avg := testing.AllocsPerRun(len(rows), appendNext); avg != 0 {
		t.Errorf("Append allocates %.2f objects per row, want 0", avg)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if tab.Pages() < 10 {
		t.Fatalf("table has %d pages, want at least 10", tab.Pages())
	}
	scanned := 0
	visit := func(RID, tpch.Row) bool { scanned++; return true }
	scan := func() {
		if err := tab.Scan(visit); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(3, scan); avg > float64(tab.Pages()) {
		t.Errorf("Scan of %d pages allocates %.0f objects, want at most one per page", tab.Pages(), avg)
	}
	if scanned != 4*int(tab.Rows()) {
		t.Errorf("scanned %d rows in 4 scans of %d", scanned, tab.Rows())
	}
}

func TestPoolNeverRecyclesPinnedFrame(t *testing.T) {
	f := stampedFile(t, 16)
	pool := NewPool(f, 3)
	held, err := pool.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for id := 0; id < f.Pages(); id++ {
			if id == 5 {
				continue
			}
			p, err := pool.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if p == held {
				t.Fatalf("page %d was read into the pinned frame", id)
			}
			if got := stamp(t, p); got != id {
				t.Fatalf("page %d shows stamp %d", id, got)
			}
			pool.Release(id)
			if got := stamp(t, held); got != 5 {
				t.Fatalf("pinned page shows stamp %d after a get of page %d", got, id)
			}
			if len(pool.byID) > pool.frames {
				t.Fatalf("%d pages resident in %d frames", len(pool.byID), pool.frames)
			}
		}
	}
	again, err := pool.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if again != held {
		t.Error("a pinned page moved to another frame")
	}
	if hits, misses := pool.Stats(); hits != 1 || misses != int64(1+3*(f.Pages()-1)) {
		t.Errorf("%d hits %d misses, want 1 and %d", hits, misses, 1+3*(f.Pages()-1))
	}
}

// A read that fails after the victim was unmapped must not leak the victim's
// frame or leave it on the LRU list, where a later eviction would unmap a
// page that is not mapped.
func TestPoolFailedReadKeepsFrameAndState(t *testing.T) {
	f := stampedFile(t, 4)
	pool := NewPool(f, 2)
	get := func(id int) *Page {
		t.Helper()
		p, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := stamp(t, p); got != id {
			t.Fatalf("page %d shows stamp %d", id, got)
		}
		pool.Release(id)
		return p
	}
	consistent := func(resident int) {
		t.Helper()
		if len(pool.byID) != resident || pool.order.Len() != resident {
			t.Fatalf("resident %d, LRU list %d, want both %d", len(pool.byID), pool.order.Len(), resident)
		}
		for el := pool.order.Front(); el != nil; el = el.Next() {
			fr := el.Value.(*frame)
			if pool.byID[fr.id] != fr || fr.el != el {
				t.Fatalf("LRU list holds a frame for page %d that byID does not map", fr.id)
			}
		}
	}

	// Below capacity, nothing to evict: the new frame becomes the spare.
	if _, err := pool.Get(99); err == nil {
		t.Fatal("Get of a page past the end succeeded")
	}
	consistent(0)
	p0 := get(0)
	consistent(1)
	get(1)
	consistent(2)

	// At capacity: page 0 is the victim, the read fails, its frame waits.
	if _, err := pool.Get(99); err == nil {
		t.Fatal("Get of a page past the end succeeded")
	}
	consistent(1)
	if _, ok := pool.byID[0]; ok {
		t.Error("the victim is still mapped after the failed read")
	}
	if p2 := get(2); p2 != p0 {
		t.Error("the miss after a failed read did not take the victim's frame")
	}
	consistent(2)
	// Page 1 is now least recently used; page 2 stays.
	get(3)
	consistent(2)
	if _, ok := pool.byID[2]; !ok {
		t.Error("evicted page 2, want page 1 (LRU)")
	}
	if hits, misses := pool.Stats(); hits != 0 || misses != 6 {
		t.Errorf("%d hits %d misses, want 0 and 6", hits, misses)
	}
	if f.Reads != 4 {
		t.Errorf("%d physical reads, want 4 (failed reads do not count)", f.Reads)
	}
}

func TestPoolMissAtCapacityDoesNotAllocate(t *testing.T) {
	f := stampedFile(t, 64)
	pool := NewPool(f, 8)
	next := 0
	miss := func() {
		if _, err := pool.Get(next); err != nil {
			t.Fatal(err)
		}
		pool.Release(next)
		next = (next + 1) % f.Pages()
	}
	for i := 0; i < pool.frames; i++ {
		miss()
	}
	_, before := pool.Stats()
	const runs = 1000
	// AllocsPerRun reports the integer mean, which leaves room for the map
	// under byID to reorganise once in a while but not for a frame, a page
	// or a list element per miss.
	if avg := testing.AllocsPerRun(runs, miss); avg != 0 {
		t.Errorf("a miss at capacity allocates %.0f objects, want 0", avg)
	}
	if _, after := pool.Stats(); after-before != runs+1 { // AllocsPerRun warms up with one extra call
		t.Errorf("%d of %d gets missed; the test must measure misses", after-before, runs+1)
	}
}

// BenchmarkPoolScanMiss is one sequential page get through a pool an eighth
// the size of its file: every get is a miss at capacity, the per-page cost
// under a column or table scan of a relation larger than its pool.
func BenchmarkPoolScanMiss(b *testing.B) {
	f := stampedFile(b, 512)
	pool := NewPool(f, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % f.Pages()
		if _, err := pool.Get(id); err != nil {
			b.Fatal(err)
		}
		pool.Release(id)
	}
	if hits, _ := pool.Stats(); hits != 0 {
		b.Fatalf("%d gets hit; the benchmark must measure misses", hits)
	}
}
