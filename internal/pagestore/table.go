package pagestore

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

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

// rowFixed is the encoded size of a row's fixed-width fields: order key,
// commit date, ship instruction, quantity, extended price and the
// comment's length.
const rowFixed = 8 + 4 + 1 + 4 + 8 + 2

// appendRow appends the encoding of a lineitem row to dst: fixed-width
// fields then the variable-length comment, rowFixed+len(r.Comment) bytes.
func appendRow(dst []byte, r tpch.Row) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.OrderKey))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.CommitDate))
	dst = append(dst, r.ShipInstruct)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Quantity))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.ExtendedPrice))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Comment)))
	return append(dst, r.Comment...)
}

// decodeRow decodes a row encoded by appendRow, all but its comment, and
// returns the comment's bytes, which alias b.
func decodeRow(b []byte) (tpch.Row, []byte, error) {
	if len(b) < rowFixed {
		return tpch.Row{}, nil, fmt.Errorf("pagestore: row too short (%d bytes)", len(b))
	}
	var r tpch.Row
	r.OrderKey = int64(binary.LittleEndian.Uint64(b[0:]))
	r.CommitDate = int32(binary.LittleEndian.Uint32(b[8:]))
	r.ShipInstruct = b[12]
	r.Quantity = int32(binary.LittleEndian.Uint32(b[13:]))
	r.ExtendedPrice = math.Float64frombits(binary.LittleEndian.Uint64(b[17:]))
	n := int(binary.LittleEndian.Uint16(b[25:]))
	if len(b) < rowFixed+n {
		return tpch.Row{}, nil, fmt.Errorf("pagestore: truncated comment (%d < %d)", len(b)-rowFixed, n)
	}
	return r, b[rowFixed : rowFixed+n], nil
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

// Append stores a row and returns its RID. Rows are encoded straight into
// the current write page, so an append allocates nothing; full pages are
// flushed to the file.
func (t *Table) Append(r tpch.Row) (RID, error) {
	n := rowFixed + len(r.Comment)
	rec, slot, ok := t.cur.reserve(n)
	if !ok {
		if err := t.flushCur(); err != nil {
			return RID{}, err
		}
		if rec, slot, ok = t.cur.reserve(n); !ok {
			return RID{}, fmt.Errorf("pagestore: row of %d bytes exceeds page capacity", n)
		}
	}
	appendRow(rec[:0], r)
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
	r, comment, err := decodeRow(rec)
	r.Comment = string(comment)
	return r, err
}

// Scan visits every row in storage order. Stops early if visit returns
// false.
//
// Scan decodes a page at a time: the page is pinned only while its rows
// are decoded, and all of its comments are copied into one string, of
// which every row's Comment is a substring. A page thus costs one
// allocation however many rows it holds, and a row stays valid after the
// pool recycles the frame it was read from (a Comment that aliased the
// frame would then read another page's bytes). A retained Comment keeps
// its page's comment string alive.
func (t *Table) Scan(visit func(rid RID, r tpch.Row) bool) error {
	var buf [maxRowsPerPage]slotRow
	rows := buf[:0]
	for pid := 0; pid < t.file.Pages(); pid++ {
		var err error
		rows, err = t.decodePage(pid, rows[:0])
		for _, sr := range rows {
			if !visit(RID{Page: int32(pid), Slot: sr.slot}, sr.row) {
				return nil
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// maxRowsPerPage bounds the live slots of a row page: every record holds
// at least the fixed-width fields.
const maxRowsPerPage = (PageSize - headerSize) / (slotSize + rowFixed)

// slotRow is one decoded row of a page and its slot.
type slotRow struct {
	slot int32
	row  tpch.Row
}

// decodePage appends the live rows of page pid to rows, their comments
// copied into one string. On a corrupt record it returns the rows before
// it with the error.
func (t *Table) decodePage(pid int, rows []slotRow) ([]slotRow, error) {
	p, err := t.pool.Get(pid)
	if err != nil {
		return rows, err
	}
	defer t.pool.Release(pid)
	n := p.NumSlots()
	size := 0
	for s := 0; s < n; s++ {
		if rec, _ := p.Get(s); len(rec) > rowFixed {
			size += len(rec) - rowFixed
		}
	}
	var comments strings.Builder
	// Grow reserves room for every comment of the page, so the buffer never
	// moves and each String() below is a prefix of the final string.
	comments.Grow(size)
	for s := 0; s < n; s++ {
		rec, ok := p.Get(s)
		if !ok || rec == nil {
			continue
		}
		r, comment, err := decodeRow(rec)
		if err != nil {
			return rows, err
		}
		start := comments.Len()
		comments.Write(comment)
		r.Comment = comments.String()[start:]
		rows = append(rows, slotRow{slot: int32(s), row: r})
	}
	return rows, nil
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
