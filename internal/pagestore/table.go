package pagestore

import (
	"encoding/binary"
	"fmt"
	"math"

	"idxflow/internal/bptree"
	"idxflow/internal/tpch"
)

// RID addresses a row: page ID and slot within the page. It packs into an
// int64 so B+Tree values can point at rows.
type RID struct {
	Page int32
	Slot int32
}

// Pack encodes the RID as an int64 (page in the high 32 bits).
func (r RID) Pack() int64 { return int64(r.Page)<<32 | int64(uint32(r.Slot)) }

// UnpackRID decodes a packed RID.
func UnpackRID(v int64) RID {
	return RID{Page: int32(v >> 32), Slot: int32(uint32(v))}
}

// EncodeRow serializes a lineitem row: fixed-width fields then the
// variable-length comment.
func EncodeRow(r tpch.Row) []byte {
	buf := make([]byte, 8+4+1+4+8+2+len(r.Comment))
	o := 0
	binary.LittleEndian.PutUint64(buf[o:], uint64(r.OrderKey))
	o += 8
	binary.LittleEndian.PutUint32(buf[o:], uint32(r.CommitDate))
	o += 4
	buf[o] = r.ShipInstruct
	o++
	binary.LittleEndian.PutUint32(buf[o:], uint32(r.Quantity))
	o += 4
	binary.LittleEndian.PutUint64(buf[o:], math.Float64bits(r.ExtendedPrice))
	o += 8
	binary.LittleEndian.PutUint16(buf[o:], uint16(len(r.Comment)))
	o += 2
	copy(buf[o:], r.Comment)
	return buf
}

// DecodeRow deserializes a row encoded by EncodeRow.
func DecodeRow(b []byte) (tpch.Row, error) {
	const fixed = 8 + 4 + 1 + 4 + 8 + 2
	if len(b) < fixed {
		return tpch.Row{}, fmt.Errorf("pagestore: row too short (%d bytes)", len(b))
	}
	var r tpch.Row
	o := 0
	r.OrderKey = int64(binary.LittleEndian.Uint64(b[o:]))
	o += 8
	r.CommitDate = int32(binary.LittleEndian.Uint32(b[o:]))
	o += 4
	r.ShipInstruct = b[o]
	o++
	r.Quantity = int32(binary.LittleEndian.Uint32(b[o:]))
	o += 4
	r.ExtendedPrice = math.Float64frombits(binary.LittleEndian.Uint64(b[o:]))
	o += 8
	n := int(binary.LittleEndian.Uint16(b[o:]))
	o += 2
	if len(b) < o+n {
		return tpch.Row{}, fmt.Errorf("pagestore: truncated comment (%d < %d)", len(b)-o, n)
	}
	r.Comment = string(b[o : o+n])
	return r, nil
}

// Table is a heap of rows in a page file, read through a buffer pool.
type Table struct {
	file *File
	pool *Pool
	rows int64
	// cur is the write page during bulk loading.
	cur     Page
	curUsed bool
}

// CreateTable creates a row table backed by a new page file at path.
// poolFrames sizes the buffer pool used for reads.
func CreateTable(path string, poolFrames int) (*Table, error) {
	f, err := Create(path)
	if err != nil {
		return nil, err
	}
	t := &Table{file: f, pool: NewPool(f, poolFrames)}
	t.cur.Reset()
	return t, nil
}

// Append stores a row and returns its RID. Rows go to the current write
// page; full pages are flushed to the file.
func (t *Table) Append(r tpch.Row) (RID, error) {
	rec := EncodeRow(r)
	slot, ok := t.cur.Insert(rec)
	if !ok {
		if err := t.flushCur(); err != nil {
			return RID{}, err
		}
		slot, ok = t.cur.Insert(rec)
		if !ok {
			return RID{}, fmt.Errorf("pagestore: row of %d bytes exceeds page capacity", len(rec))
		}
	}
	t.curUsed = true
	t.rows++
	return RID{Page: int32(t.file.Pages()), Slot: int32(slot)}, nil
}

func (t *Table) flushCur() error {
	if _, err := t.file.Append(&t.cur); err != nil {
		return err
	}
	t.cur.Reset()
	t.curUsed = false
	return nil
}

// Flush writes any buffered rows out; call it after the last Append and
// before reading.
func (t *Table) Flush() error {
	if t.curUsed {
		return t.flushCur()
	}
	return nil
}

// Rows returns the number of appended rows.
func (t *Table) Rows() int64 { return t.rows }

// Pages returns the number of flushed pages.
func (t *Table) Pages() int { return t.file.Pages() }

// Fetch reads one row by RID through the buffer pool.
func (t *Table) Fetch(rid RID) (tpch.Row, error) {
	p, err := t.pool.Get(int(rid.Page))
	if err != nil {
		return tpch.Row{}, err
	}
	defer t.pool.Release(int(rid.Page))
	rec, ok := p.Get(int(rid.Slot))
	if !ok || rec == nil {
		return tpch.Row{}, fmt.Errorf("pagestore: no row at %+v", rid)
	}
	return DecodeRow(rec)
}

// Scan visits every row in storage order. Stops early if visit returns
// false.
func (t *Table) Scan(visit func(rid RID, r tpch.Row) bool) error {
	for pid := 0; pid < t.file.Pages(); pid++ {
		p, err := t.pool.Get(pid)
		if err != nil {
			return err
		}
		n := p.NumSlots()
		for s := 0; s < n; s++ {
			rec, ok := p.Get(s)
			if !ok || rec == nil {
				continue
			}
			row, err := DecodeRow(rec)
			if err != nil {
				t.pool.Release(pid)
				return err
			}
			if !visit(RID{Page: int32(pid), Slot: int32(s)}, row) {
				t.pool.Release(pid)
				return nil
			}
		}
		t.pool.Release(pid)
	}
	return nil
}

// PoolStats exposes the buffer pool counters.
func (t *Table) PoolStats() (hits, misses int64) { return t.pool.Stats() }

// IOStats exposes the physical page I/O counters.
func (t *Table) IOStats() (reads, writes int64) { return t.file.Reads, t.file.Writes }

// Close closes the underlying file.
func (t *Table) Close() error { return t.file.Close() }

// BuildIndex bulk-loads a B+Tree over key(r) -> packed RID by scanning the
// table once. The key/RID columns are collected into exactly-sized
// parallel slices (the row count is known up front), skipping the []Pair
// materialization.
func (t *Table) BuildIndex(key func(r tpch.Row) int64) (*bptree.Tree, error) {
	keys := make([]int64, 0, t.Rows())
	vals := make([]int64, 0, t.Rows())
	err := t.Scan(func(rid RID, r tpch.Row) bool {
		keys = append(keys, key(r))
		vals = append(vals, rid.Pack())
		return true
	})
	if err != nil {
		return nil, err
	}
	// Stable sort by key; Scan order breaks ties.
	bptree.SortByKey(keys, vals)
	return bptree.BulkLoadSorted(bptree.DefaultOrder, keys, vals)
}
