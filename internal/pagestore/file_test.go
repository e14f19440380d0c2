package pagestore

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"

	"idxflow/internal/tpch"
)

// stampPage makes p the page that holds the single record uint64(id).
func stampPage(tb testing.TB, p *Page, id int) {
	tb.Helper()
	p.Reset()
	var rec [8]byte
	binary.LittleEndian.PutUint64(rec[:], uint64(id))
	if _, ok := insert(p, rec[:]); !ok {
		tb.Fatal("stamp does not fit an empty page")
	}
}

// Loading a row table and scanning it once through a pool smaller than
// the table moves its pages in runs: one write call per runPages appended
// pages and one read call per runPages scanned ones, while the page
// counts and the pool's hits and misses are those of one page per call.
func TestFileMovesRunsOfPages(t *testing.T) {
	tab, rows := buildTable(t, 16000, 16)
	n := tab.Pages()
	if n < 200 {
		t.Fatalf("table has %d pages, want at least 200", n)
	}
	runs := int64((n+runPages-1)/runPages + 1)
	if tab.file.writeCalls > runs {
		t.Errorf("loading %d pages made %d write calls, want at most %d", n, tab.file.writeCalls, runs)
	}
	scanned := 0
	if err := tab.Scan(func(RID, tpch.Row) bool { scanned++; return true }); err != nil {
		t.Fatal(err)
	}
	if scanned != len(rows) {
		t.Fatalf("scanned %d rows, want %d", scanned, len(rows))
	}
	if tab.file.readCalls > runs {
		t.Errorf("scanning %d pages made %d read calls, want at most %d", n, tab.file.readCalls, runs)
	}
	if reads, writes := tab.IOStats(); reads != int64(n) || writes != int64(n) {
		t.Errorf("IOStats = %d reads %d writes, want %d of each", reads, writes, n)
	}
	if hits, misses := tab.PoolStats(); hits != 0 || misses != int64(n) {
		t.Errorf("one sequential scan: %d hits %d misses, want 0 and %d", hits, misses, n)
	}
}

// A two-column table appended a page of values at a time, as an index run
// file is, holds page i of each column side by side, so two cursors that
// read the columns in lockstep read the file front to back: one read call
// per runPages pages, and one page read per page.
func TestColumnPagesSideBySideReadInRuns(t *testing.T) {
	ct, err := CreateColumnTable(filepath.Join(t.TempDir(), "run.cols"), 4,
		ColSpec{Name: "key", Width: 8}, ColSpec{Name: "rid", Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	step := ColCap(8)
	n := 64*step + step/3
	keys := make([]int64, n)
	rids := make([]int64, n)
	for i := range keys {
		keys[i], rids[i] = int64(i), -int64(i)
	}
	for lo := 0; lo < n; lo += step {
		hi := min(lo+step, n)
		if err := ct.AppendBatch(keys[lo:hi], rids[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ct.Flush(); err != nil {
		t.Fatal(err)
	}
	pages := ct.Pages()
	if want := 2 * ((n + step - 1) / step); pages != want {
		t.Fatalf("table has %d pages, want %d", pages, want)
	}
	kc, err := ct.NewColCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ct.NewColCursor(1)
	if err != nil {
		t.Fatal(err)
	}
	var kb, rb []int64
	row := 0
	for {
		var okK, okR bool
		if kb, okK, err = kc.NextBlock(kb[:0]); err != nil {
			t.Fatal(err)
		}
		if rb, okR, err = rc.NextBlock(rb[:0]); err != nil {
			t.Fatal(err)
		}
		if okK != okR || len(kb) != len(rb) {
			t.Fatalf("row %d: cursors out of step (%d keys, %d rids)", row, len(kb), len(rb))
		}
		if !okK {
			break
		}
		for j := range kb {
			if kb[j] != keys[row] || rb[j] != rids[row] {
				t.Fatalf("row %d: got (%d, %d), want (%d, %d)", row, kb[j], rb[j], keys[row], rids[row])
			}
			row++
		}
	}
	if row != n {
		t.Fatalf("read %d rows, want %d", row, n)
	}
	if runs := int64((pages+runPages-1)/runPages + 1); ct.file.readCalls > runs {
		t.Errorf("reading %d pages in lockstep made %d read calls, want at most %d", pages, ct.file.readCalls, runs)
	}
	if reads, _ := ct.IOStats(); reads != int64(pages) {
		t.Errorf("IOStats = %d page reads, want %d", reads, pages)
	}
}

// A run write that fails fails the Flush or Append that made it, and its
// pages leave the file; the pages written before it stay readable.
func TestFileFailedRunWrite(t *testing.T) {
	f, err := Create(filepath.Join(t.TempDir(), "broken.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var p Page
	for i := 0; i < runPages+3; i++ {
		stampPage(t, &p, i)
		if _, err := f.Append(&p); err != nil {
			t.Fatal(err)
		}
	}
	if f.Writes != runPages || f.Pages() != runPages+3 {
		t.Fatalf("%d pages written of %d, want %d of %d", f.Writes, f.Pages(), runPages, runPages+3)
	}
	f.f.Close()
	if err := f.Flush(); err == nil {
		t.Fatal("Flush over a closed file succeeded")
	}
	if f.Pages() != runPages || f.Writes != runPages {
		t.Errorf("after the failed write: %d pages, %d written, want %d of each", f.Pages(), f.Writes, runPages)
	}
	for id := runPages; id < runPages+3; id++ {
		if err := f.ReadPage(id, &p); err == nil {
			t.Errorf("ReadPage(%d) of an unwritten page succeeded", id)
		}
	}
	for i := 0; i < runPages-1; i++ {
		stampPage(t, &p, runPages+i)
		if _, err := f.Append(&p); err != nil {
			t.Fatalf("Append %d with no run to write: %v", i, err)
		}
	}
	stampPage(t, &p, 2*runPages-1)
	if _, err := f.Append(&p); err == nil {
		t.Fatal("the Append that writes a run over a closed file succeeded")
	}
	if f.Pages() != runPages || f.Writes != runPages {
		t.Errorf("after the failed Append: %d pages, %d written, want %d of each", f.Pages(), f.Writes, runPages)
	}
}

// A ReadPage of a page that is staged and not yet flushed returns its bytes.
func TestFileReadsStagedPage(t *testing.T) {
	f, err := Create(filepath.Join(t.TempDir(), "staged.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var p Page
	for i := 0; i < 3; i++ {
		stampPage(t, &p, i)
		if _, err := f.Append(&p); err != nil {
			t.Fatal(err)
		}
	}
	if f.Writes != 0 {
		t.Fatalf("%d pages written before a run filled", f.Writes)
	}
	var q Page
	for _, id := range []int{1, 2, 0} {
		if err := f.ReadPage(id, &q); err != nil {
			t.Fatal(err)
		}
		if got := stamp(t, &q); got != id {
			t.Errorf("staged page %d reads as page %d", id, got)
		}
	}
	if f.Writes != 3 {
		t.Errorf("%d pages written after reading a staged one, want 3", f.Writes)
	}
}

// FuzzFileRuns holds a File to a model, a slice of the pages appended so
// far, over a sequence of appends, reads, flushes and reopenings that it
// decodes from the input, one byte per operation: the low three bits pick
// the operation, the high five its argument. Every read must return the
// model's bytes or fail exactly when its id is out of range, and Pages,
// Reads and Writes must match the model after every step.
func FuzzFileRuns(f *testing.F) {
	const (
		opAppend     = iota // one page
		opAppendMany        // argument+1 pages
		opRead              // the page named by the next byte, less 2
		opReadNext          // the page after the last one read
		opReadAgain         // the last page read
		opFlush
		opReopen
		opReadEnd // the last page, or one past it for an odd argument
	)
	op := func(code, arg int) byte { return byte(arg<<3 | code) }
	f.Add([]byte{ // a sequential scan across a window edge
		op(opAppendMany, 19), op(opAppendMany, 19), op(opFlush, 0), op(opRead, 0), 2,
		op(opReadNext, 0), op(opReadNext, 0), op(opReadNext, 0), op(opReadNext, 0), op(opReadNext, 0),
		op(opReadNext, 0), op(opReadNext, 0), op(opReadNext, 0), op(opReadNext, 0), op(opReadNext, 0),
		op(opReadNext, 0), op(opReadNext, 0), op(opReadNext, 0), op(opReadNext, 0), op(opReadNext, 0),
		op(opReadNext, 0), op(opReadNext, 0), op(opReadAgain, 0), op(opReadNext, 0),
	})
	f.Add([]byte{ // a read-back of a staged page
		op(opAppend, 0), op(opAppend, 0), op(opAppend, 0), op(opRead, 0), 3, op(opReadNext, 0),
		op(opAppend, 0), op(opReadEnd, 0), op(opReadEnd, 1), op(opAppendMany, 15), op(opReadEnd, 0),
	})
	f.Add([]byte{ // a random read inside a live window
		op(opAppendMany, 31), op(opAppendMany, 7), op(opRead, 0), 2, op(opRead, 0), 11, op(opRead, 0), 5,
		op(opRead, 0), 11, op(opReadNext, 0), op(opRead, 0), 32, op(opReadNext, 0), op(opRead, 0), 40,
	})
	f.Add([]byte{ // reopening: staged pages are written at Close
		op(opAppendMany, 4), op(opReopen, 0), op(opRead, 0), 2, op(opAppendMany, 20),
		op(opReadNext, 0), op(opReopen, 0), op(opRead, 0), 30, op(opReadNext, 0), op(opRead, 0), 0,
	})
	f.Fuzz(func(t *testing.T, prog []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.pages")
		pf, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { pf.Close() }()
		var (
			model      [][]byte
			written    int // pages of the model on disk
			openedAt   int // pages on disk when pf was opened
			reads      int64
			last       = -1
			page, read Page
		)
		appendPage := func() {
			if len(model) >= 256 {
				return
			}
			id := len(model)
			stampPage(t, &page, id)
			page.buf[PageSize-1] = byte(id*7 + len(prog))
			got, err := pf.Append(&page)
			if err != nil || got != id {
				t.Fatalf("Append = %d, %v, want page %d", got, err, id)
			}
			model = append(model, bytes.Clone(page.Bytes()))
			if len(model)-written == runPages {
				written = len(model)
			}
		}
		readPage := func(id int) {
			err := pf.ReadPage(id, &read)
			if id < 0 || id >= len(model) {
				if err == nil {
					t.Fatalf("ReadPage(%d) of %d pages succeeded", id, len(model))
				}
				return
			}
			if err != nil {
				t.Fatalf("ReadPage(%d) of %d pages: %v", id, len(model), err)
			}
			if !bytes.Equal(read.Bytes(), model[id]) {
				t.Fatalf("ReadPage(%d) returned page %d's bytes", id, stamp(t, &read))
			}
			if id >= written {
				written = len(model)
			}
			reads++
			last = id
		}
		for i := 0; i < len(prog); i++ {
			code, arg := int(prog[i]&7), int(prog[i]>>3)
			switch code {
			case opAppend:
				appendPage()
			case opAppendMany:
				for k := 0; k <= arg; k++ {
					appendPage()
				}
			case opRead:
				id := -2
				if i+1 < len(prog) {
					i++
					id = int(prog[i]) - 2
				}
				readPage(id)
			case opReadNext:
				readPage(last + 1)
			case opReadAgain:
				readPage(last)
			case opFlush:
				if err := pf.Flush(); err != nil {
					t.Fatal(err)
				}
				written = len(model)
			case opReopen:
				if err := pf.Close(); err != nil {
					t.Fatal(err)
				}
				if pf, err = Open(path); err != nil {
					t.Fatal(err)
				}
				written, openedAt, reads, last = len(model), len(model), 0, -1
			case opReadEnd:
				readPage(len(model) - 1 + arg%2)
			}
			if pf.Pages() != len(model) || pf.Reads != reads || pf.Writes != int64(written-openedAt) {
				t.Fatalf("step %d: %d pages, %d reads, %d writes, want %d, %d and %d",
					i, pf.Pages(), pf.Reads, pf.Writes, len(model), reads, written-openedAt)
			}
		}
	})
}
