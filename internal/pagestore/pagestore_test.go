package pagestore

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"idxflow/internal/tpch"
)

// insert copies rec into a slot of p, as Table.Append encodes a row into one.
func insert(p *Page, rec []byte) (slot int, ok bool) {
	dst, slot, ok := p.reserve(len(rec))
	copy(dst, rec)
	return slot, ok
}

func TestPageInsertGet(t *testing.T) {
	var p Page
	p.Reset()
	s1, ok := insert(&p, []byte("hello"))
	if !ok || s1 != 0 {
		t.Fatalf("Insert = %d,%v", s1, ok)
	}
	s2, ok := insert(&p, []byte("world!"))
	if !ok || s2 != 1 {
		t.Fatalf("second Insert = %d,%v", s2, ok)
	}
	if got, ok := p.Get(0); !ok || !bytes.Equal(got, []byte("hello")) {
		t.Errorf("Get(0) = %q,%v", got, ok)
	}
	if got, ok := p.Get(1); !ok || !bytes.Equal(got, []byte("world!")) {
		t.Errorf("Get(1) = %q,%v", got, ok)
	}
	if _, ok := p.Get(2); ok {
		t.Error("Get(2) on 2-slot page succeeded")
	}
	if _, ok := p.Get(-1); ok {
		t.Error("Get(-1) succeeded")
	}
}

func TestPageFillsAndRejects(t *testing.T) {
	var p Page
	p.Reset()
	rec := make([]byte, 100)
	n := 0
	for {
		if _, ok := insert(&p, rec); !ok {
			break
		}
		n++
	}
	// ~(4096-4)/(100+4) = 39 records fit.
	if n < 35 || n > 40 {
		t.Errorf("fit %d 100-byte records, want ~39", n)
	}
	if p.FreeSpace() >= 100 {
		t.Errorf("FreeSpace = %d after filling", p.FreeSpace())
	}
	// Oversized record.
	if _, ok := insert(&p, make([]byte, PageSize)); ok {
		t.Error("oversized insert succeeded")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.pages")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var p Page
	p.Reset()
	insert(&p, []byte("page0"))
	id, err := f.Append(&p)
	if err != nil || id != 0 {
		t.Fatalf("Append = %d,%v", id, err)
	}
	p.Reset()
	insert(&p, []byte("page1"))
	if id, _ := f.Append(&p); id != 1 {
		t.Fatalf("second Append id = %d", id)
	}
	f.Close()

	f2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.Pages() != 2 {
		t.Fatalf("Pages = %d", f2.Pages())
	}
	var q Page
	if err := f2.ReadPage(0, &q); err != nil {
		t.Fatal(err)
	}
	if got, _ := q.Get(0); !bytes.Equal(got, []byte("page0")) {
		t.Errorf("page0 content = %q", got)
	}
	if err := f2.ReadPage(7, &q); err == nil {
		t.Error("ReadPage(7) succeeded")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := tpch.Generate(0.0002, 5)
	for _, r := range rows {
		got, comment, err := decodeRow(appendRow(nil, r))
		if err != nil {
			t.Fatal(err)
		}
		got.Comment = string(comment)
		if got != r {
			t.Fatalf("round trip changed row: %+v vs %+v", got, r)
		}
	}
	if _, _, err := decodeRow([]byte{1, 2, 3}); err == nil {
		t.Error("short decode succeeded")
	}
	// Truncated comment.
	enc := appendRow(nil, tpch.Row{Comment: "hello world"})
	if _, _, err := decodeRow(enc[:len(enc)-3]); err == nil {
		t.Error("truncated decode succeeded")
	}
}

func TestRIDPack(t *testing.T) {
	f := func(p, s int32) bool {
		if p < 0 || s < 0 {
			return true
		}
		rid := RID{Page: p, Slot: s}
		return UnpackRID(rid.Pack()) == rid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func buildTable(t *testing.T, nRows int, frames int) (*Table, []tpch.Row) {
	t.Helper()
	rows := tpch.Generate(float64(nRows)/tpch.RowsPerScale, 7)
	tab, err := CreateTable(filepath.Join(t.TempDir(), "rows.pages"), frames)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() })
	for _, r := range rows {
		if _, err := tab.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	return tab, rows
}

func TestTableScanMatchesInput(t *testing.T) {
	tab, rows := buildTable(t, 3000, 16)
	if tab.Rows() != int64(len(rows)) {
		t.Fatalf("Rows = %d, want %d", tab.Rows(), len(rows))
	}
	i := 0
	err := tab.Scan(func(rid RID, r tpch.Row) bool {
		if r != rows[i] {
			t.Fatalf("row %d mismatch", i)
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(rows) {
		t.Errorf("scanned %d rows, want %d", i, len(rows))
	}
}

func TestTableFetchByRID(t *testing.T) {
	tab, rows := buildTable(t, 1000, 8)
	var rids []RID
	tab.Scan(func(rid RID, r tpch.Row) bool {
		rids = append(rids, rid)
		return true
	})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		i := rng.Intn(len(rids))
		got, err := tab.Fetch(rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != rows[i] {
			t.Fatalf("Fetch(%+v) mismatch", rids[i])
		}
	}
	if _, err := tab.Fetch(RID{Page: 9999, Slot: 0}); err == nil {
		t.Error("Fetch of bogus RID succeeded")
	}
}

func TestIndexedLookupOnPagedTable(t *testing.T) {
	tab, rows := buildTable(t, 3000, 8)
	tree, err := tab.BuildIndex(func(r tpch.Row) int64 { return r.OrderKey })
	if err != nil {
		t.Fatal(err)
	}
	key := rows[len(rows)/2].OrderKey
	v, ok := tree.Get(key)
	if !ok {
		t.Fatal("index lookup missed an existing key")
	}
	got, err := tab.Fetch(UnpackRID(v))
	if err != nil {
		t.Fatal(err)
	}
	if got.OrderKey != key {
		t.Errorf("fetched key %d, want %d", got.OrderKey, key)
	}
	// Range over the index returns rows in key order.
	var prev int64 = -1
	tree.Range(key, key+50, func(k, v int64) bool {
		if k < prev {
			t.Fatal("range out of order")
		}
		prev = k
		return true
	})
}

func TestBufferPoolCaching(t *testing.T) {
	tab, _ := buildTable(t, 2000, 4)
	var rid0 RID
	tab.Scan(func(rid RID, r tpch.Row) bool {
		rid0 = rid
		return false
	})
	// Fetch the same page repeatedly: one miss, then hits.
	h0, m0 := tab.PoolStats()
	for i := 0; i < 10; i++ {
		if _, err := tab.Fetch(rid0); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := tab.PoolStats()
	if m1-m0 > 1 {
		t.Errorf("misses = %d, want <= 1", m1-m0)
	}
	if h1-h0 < 9 {
		t.Errorf("hits = %d, want >= 9", h1-h0)
	}
}

func TestPoolEvictsUnpinnedLRU(t *testing.T) {
	tab, _ := buildTable(t, 4000, 2)
	pages := tab.Pages()
	if pages < 4 {
		t.Skip("not enough pages")
	}
	// Scan twice: the pool (2 frames) cannot hold everything, so reads
	// exceed the page count.
	tab.Scan(func(RID, tpch.Row) bool { return true })
	tab.Scan(func(RID, tpch.Row) bool { return true })
	reads, _ := tab.IOStats()
	if reads < int64(2*pages)-2 {
		t.Errorf("reads = %d with a 2-frame pool over %d pages, want ~%d", reads, pages, 2*pages)
	}
	if len(tab.pool.byID) > 2 {
		t.Errorf("resident = %d, want <= 2", len(tab.pool.byID))
	}
}

func TestPoolAllPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.pages")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var p Page
	p.Reset()
	f.Append(&p)
	f.Append(&p)
	pool := NewPool(f, 1)
	if _, err := pool.Get(0); err != nil {
		t.Fatal(err)
	}
	// Page 0 pinned; requesting page 1 cannot evict.
	if _, err := pool.Get(1); err == nil {
		t.Error("Get with all frames pinned succeeded")
	}
	pool.Release(0)
	if _, err := pool.Get(1); err != nil {
		t.Errorf("Get after release failed: %v", err)
	}
}

// BenchmarkTableAppendScan is the row path of one dp_build op: append a
// 150k-row partition to a fresh table, flush it, and scan it once through
// a 64-frame pool. The rows are generated outside the timer.
func BenchmarkTableAppendScan(b *testing.B) {
	rows := tpch.Generate(150_000.0/tpch.RowsPerScale, 11)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := CreateTable(filepath.Join(dir, "rows.pages"), 64)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if _, err := tab.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := tab.Flush(); err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := tab.Scan(func(RID, tpch.Row) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
		if n != len(rows) {
			b.Fatalf("scanned %d rows, want %d", n, len(rows))
		}
		tab.Close()
	}
}
