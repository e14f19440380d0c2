package pagestore

import (
	"encoding/binary"
	"path/filepath"
	"reflect"
	"testing"

	"idxflow/internal/tpch"
)

func TestColPageRoundTrip(t *testing.T) {
	for _, width := range []int{1, 4, 8} {
		var p Page
		if err := ColInit(&p, width); err != nil {
			t.Fatal(err)
		}
		if got := ColWidth(&p); got != width {
			t.Fatalf("width = %d, want %d", got, width)
		}
		vals := make([]int64, ColCap(width))
		for i := range vals {
			// In-range signed values for the width.
			switch width {
			case 1:
				vals[i] = int64(int8(i * 7))
			case 4:
				vals[i] = int64(int32(i*100003 - 50000))
			default:
				vals[i] = int64(i)*1e12 - 5e11
			}
		}
		if took := ColAppend(&p, vals); took != len(vals) {
			t.Fatalf("width %d: took %d of %d", width, took, len(vals))
		}
		if took := ColAppend(&p, []int64{1}); took != 0 {
			t.Fatalf("width %d: full page accepted a value", width)
		}
		got := ColDecode(&p, nil)
		if !reflect.DeepEqual(got, vals) {
			t.Fatalf("width %d: decode differs", width)
		}
	}
}

func TestColPageRejectsBadWidth(t *testing.T) {
	var p Page
	for _, w := range []int{0, 2, 3, 16, -1} {
		if err := ColInit(&p, w); err == nil {
			t.Fatalf("width %d accepted", w)
		}
	}
}

// TestColPageTruncation documents the modular truncation contract for
// values outside the width's signed range.
func TestColPageTruncation(t *testing.T) {
	var p Page
	if err := ColInit(&p, 4); err != nil {
		t.Fatal(err)
	}
	v := int64(1)<<40 | 12345
	ColAppend(&p, []int64{v})
	got := ColDecode(&p, nil)
	if want := int64(int32(v)); got[0] != want {
		t.Fatalf("truncated decode = %d, want %d", got[0], want)
	}
}

// TestColDecodeCorruptCount proves a corrupt count header can never read
// past the page.
func TestColDecodeCorruptCount(t *testing.T) {
	var p Page
	if err := ColInit(&p, 8); err != nil {
		t.Fatal(err)
	}
	ColAppend(&p, []int64{1, 2, 3})
	binary.LittleEndian.PutUint16(p.buf[0:2], 0xFFFF)
	got := ColDecode(&p, nil)
	if len(got) != ColCap(8) {
		t.Fatalf("corrupt count decoded %d values, want capped %d", len(got), ColCap(8))
	}
}

func TestColumnTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rows := tpch.Generate(0.002, 13) // ~12k rows: several pages per column
	cols := tpch.ColumnsFromRows(rows)

	ct, err := CreateColumnTable(filepath.Join(dir, "lineitem.cols"), 8,
		ColSpec{Name: "orderkey", Width: 8},
		ColSpec{Name: "commitdate", Width: 4},
		ColSpec{Name: "quantity", Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	// Append in uneven batches to exercise page-boundary splits.
	for i := 0; i < len(rows); {
		end := i + 777
		if end > len(rows) {
			end = len(rows)
		}
		ok := make([]int64, 0, end-i)
		cd := make([]int64, 0, end-i)
		qt := make([]int64, 0, end-i)
		for j := i; j < end; j++ {
			ok = append(ok, cols.OrderKey[j])
			cd = append(cd, int64(cols.CommitDate[j]))
			qt = append(qt, int64(cols.Quantity[j]))
		}
		if err := ct.AppendBatch(ok, cd, qt); err != nil {
			t.Fatal(err)
		}
		i = end
	}
	if err := ct.Flush(); err != nil {
		t.Fatal(err)
	}

	check := func(ci int, want func(i int) int64) {
		t.Helper()
		var i int
		err := ct.ScanColumn(ci, func(base int64, block []int64) bool {
			if base != int64(i) {
				t.Fatalf("column %d: block base %d, want %d", ci, base, i)
			}
			for _, v := range block {
				if v != want(i) {
					t.Fatalf("column %d row %d: %d, want %d", ci, i, v, want(i))
				}
				i++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if i != len(rows) {
			t.Fatalf("column %d scanned %d values, want %d", ci, i, len(rows))
		}
	}
	check(0, func(i int) int64 { return cols.OrderKey[i] })
	check(1, func(i int) int64 { return int64(cols.CommitDate[i]) })
	check(2, func(i int) int64 { return int64(cols.Quantity[i]) })

	// The cursor sees the same values as the scan.
	cur, err := ct.NewColCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	buf := make([]int64, 0, ColCap(8))
	for {
		var ok bool
		buf, ok, err = cur.NextBlock(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, buf...)
	}
	if !reflect.DeepEqual(got, cols.OrderKey) {
		t.Fatal("cursor values differ from column")
	}
}

func TestColumnTableAppendValidation(t *testing.T) {
	dir := t.TempDir()
	ct, err := CreateColumnTable(filepath.Join(dir, "v.cols"), 2,
		ColSpec{Name: "a", Width: 8}, ColSpec{Name: "b", Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if err := ct.AppendBatch([]int64{1}); err == nil {
		t.Fatal("wrong column count accepted")
	}
	if err := ct.AppendBatch([]int64{1, 2}, []int64{3}); err == nil {
		t.Fatal("ragged batch accepted")
	}
	if _, err := CreateColumnTable(filepath.Join(dir, "w.cols"), 2, ColSpec{Name: "x", Width: 3}); err == nil {
		t.Fatal("bad width accepted")
	}
	if _, err := CreateColumnTable(filepath.Join(dir, "z.cols"), 2); err == nil {
		t.Fatal("zero columns accepted")
	}
}
