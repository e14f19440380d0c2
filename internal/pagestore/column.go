package pagestore

import (
	"encoding/binary"
	"fmt"
)

// Column-major page layout. A column page holds one packed run of
// fixed-width little-endian integer values from a single column:
//
//	[0:2)  count  uint16 — number of values stored
//	[2:3)  width  uint8  — bytes per value (1, 4 or 8)
//	[3:4)  reserved
//	[4:4+count*width) values, little endian, sign-extended on decode
//
// Compared to the slotted row layout, a column page has no per-record slot
// array and no per-row decode: scans copy whole value runs into int64
// blocks, which is what makes the vectorized operators in internal/exec
// fast on disk-resident data.
const colHeaderSize = 4

// ColCap returns how many values of the given width fit in one page.
func ColCap(width int) int { return (PageSize - colHeaderSize) / width }

// ColInit makes p an empty column page of the given value width. Width
// must be 1, 4 or 8.
func ColInit(p *Page, width int) error {
	if width != 1 && width != 4 && width != 8 {
		return fmt.Errorf("pagestore: unsupported column width %d (want 1, 4 or 8)", width)
	}
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.buf[2] = byte(width)
	return nil
}

// ColCount returns the number of values in the column page.
func ColCount(p *Page) int { return int(binary.LittleEndian.Uint16(p.buf[0:2])) }

// ColWidth returns the value width of the column page (0 for a page that
// was never ColInit'd, e.g. all-zero bytes read from disk).
func ColWidth(p *Page) int { return int(p.buf[2]) }

// ColAppend appends values to the column page, truncating each to the
// page's width, and returns how many were taken (0 when the page is full).
// Values outside the width's signed range round-trip modulo 2^(8*width);
// callers that must preserve exact values use width 8 or check bounds.
func ColAppend(p *Page, vals []int64) int {
	w := ColWidth(p)
	if w == 0 {
		return 0
	}
	n := ColCount(p)
	room := ColCap(w) - n
	if room <= 0 {
		return 0
	}
	take := len(vals)
	if take > room {
		take = room
	}
	off := colHeaderSize + n*w
	switch w {
	case 1:
		for _, v := range vals[:take] {
			p.buf[off] = byte(v)
			off++
		}
	case 4:
		for _, v := range vals[:take] {
			binary.LittleEndian.PutUint32(p.buf[off:], uint32(v))
			off += 4
		}
	default: // 8
		for _, v := range vals[:take] {
			binary.LittleEndian.PutUint64(p.buf[off:], uint64(v))
			off += 8
		}
	}
	binary.LittleEndian.PutUint16(p.buf[0:2], uint16(n+take))
	return take
}

// ColDecode appends the page's values to dst, sign-extended to int64, and
// returns the extended slice. An uninitialized page decodes to nothing.
func ColDecode(p *Page, dst []int64) []int64 {
	w := ColWidth(p)
	if w != 1 && w != 4 && w != 8 {
		return dst
	}
	n := ColCount(p)
	if max := ColCap(w); n > max {
		n = max // corrupt header; never read past the page
	}
	off := colHeaderSize
	switch w {
	case 1:
		for i := 0; i < n; i++ {
			dst = append(dst, int64(int8(p.buf[off])))
			off++
		}
	case 4:
		for i := 0; i < n; i++ {
			dst = append(dst, int64(int32(binary.LittleEndian.Uint32(p.buf[off:]))))
			off += 4
		}
	default:
		for i := 0; i < n; i++ {
			dst = append(dst, int64(binary.LittleEndian.Uint64(p.buf[off:])))
			off += 8
		}
	}
	return dst
}

// ColSpec describes one fixed-width column of a ColumnTable.
type ColSpec struct {
	Name  string
	Width int // bytes per value: 1, 4 or 8
}

// ColumnTable is a column-major table in a page file: each column's values
// are packed into their own chain of column pages, read back through a
// shared buffer pool. Values are presented as int64 regardless of storage
// width (narrower columns are truncated on append and sign-extended on
// scan). Appends are batched and buffered per column; call Flush before
// scanning.
type ColumnTable struct {
	file  *File
	pool  *Pool
	specs []ColSpec
	// pageIDs[c] lists the file pages holding column c, in value order —
	// the in-memory column directory (pages from different columns
	// interleave in the file as their write pages fill at different rates).
	pageIDs [][]int32
	cur     []*Page // per-column write page
}

// CreateColumnTable creates a columnar table backed by a new page file at
// path. poolFrames sizes the read buffer pool.
func CreateColumnTable(path string, poolFrames int, specs ...ColSpec) (*ColumnTable, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("pagestore: column table needs at least one column")
	}
	f, err := Create(path)
	if err != nil {
		return nil, err
	}
	t := &ColumnTable{
		file:    f,
		pool:    NewPool(f, poolFrames),
		specs:   specs,
		pageIDs: make([][]int32, len(specs)),
		cur:     make([]*Page, len(specs)),
	}
	for i, s := range specs {
		t.cur[i] = new(Page)
		if err := ColInit(t.cur[i], s.Width); err != nil {
			f.Close()
			return nil, fmt.Errorf("pagestore: column %q: %w", s.Name, err)
		}
	}
	return t, nil
}

// Pages returns the number of flushed pages across all columns.
func (t *ColumnTable) Pages() int { return t.file.Pages() }

// PoolStats exposes the buffer pool counters.
func (t *ColumnTable) PoolStats() (hits, misses int64) { return t.pool.Stats() }

// IOStats exposes the physical page I/O counters.
func (t *ColumnTable) IOStats() (reads, writes int64) { return t.file.Reads, t.file.Writes }

// Close closes the underlying file.
func (t *ColumnTable) Close() error { return t.file.Close() }

// AppendBatch appends one block of rows given as parallel column slices
// (cols[i] feeds column i; all must have equal length). Full pages are
// flushed to the file as they fill.
func (t *ColumnTable) AppendBatch(cols ...[]int64) error {
	if len(cols) != len(t.specs) {
		return fmt.Errorf("pagestore: AppendBatch got %d columns, table has %d", len(cols), len(t.specs))
	}
	n := len(cols[0])
	for i, c := range cols {
		if len(c) != n {
			return fmt.Errorf("pagestore: AppendBatch column %d has %d values, want %d", i, len(c), n)
		}
	}
	for ci, vals := range cols {
		for len(vals) > 0 {
			took := ColAppend(t.cur[ci], vals)
			vals = vals[took:]
			if len(vals) > 0 { // page full
				if err := t.flushCol(ci); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (t *ColumnTable) flushCol(ci int) error {
	id, err := t.file.Append(t.cur[ci])
	if err != nil {
		return err
	}
	t.pageIDs[ci] = append(t.pageIDs[ci], int32(id))
	return ColInit(t.cur[ci], t.specs[ci].Width)
}

// Flush writes every partially-filled column page out; call it after the
// last AppendBatch and before scanning.
func (t *ColumnTable) Flush() error {
	for ci := range t.cur {
		if ColCount(t.cur[ci]) > 0 {
			if err := t.flushCol(ci); err != nil {
				return err
			}
		}
	}
	return nil
}

// ScanColumn visits column ci's values in row order as decoded blocks (one
// block per page, up to ColCap(width) values). The block aliases a
// per-scan buffer that is reused between visits; copy values to retain
// them. base is the row position of block[0]. Stops early when visit
// returns false.
func (t *ColumnTable) ScanColumn(ci int, visit func(base int64, block []int64) bool) error {
	if ci < 0 || ci >= len(t.specs) {
		return fmt.Errorf("pagestore: no column %d", ci)
	}
	buf := make([]int64, 0, ColCap(t.specs[ci].Width))
	var base int64
	for _, pid := range t.pageIDs[ci] {
		p, err := t.pool.Get(int(pid))
		if err != nil {
			return err
		}
		buf = ColDecode(p, buf[:0])
		t.pool.Release(int(pid))
		if !visit(base, buf) {
			return nil
		}
		base += int64(len(buf))
	}
	return nil
}

// ColCursor streams one column's values in row order, block at a time —
// the pull-style counterpart of ScanColumn for k-way consumers like the
// external sorter's merge.
type ColCursor struct {
	t    *ColumnTable
	ci   int
	next int // next index into pageIDs[ci]
}

// NewColCursor returns a cursor over column ci positioned before the first
// block.
func (t *ColumnTable) NewColCursor(ci int) (*ColCursor, error) {
	if ci < 0 || ci >= len(t.specs) {
		return nil, fmt.Errorf("pagestore: no column %d", ci)
	}
	return &ColCursor{t: t, ci: ci}, nil
}

// NextBlock appends the next block of values to dst (pass dst[:0] to reuse
// a buffer) and returns the extended slice; ok is false at the end.
func (c *ColCursor) NextBlock(dst []int64) ([]int64, bool, error) {
	ids := c.t.pageIDs[c.ci]
	if c.next >= len(ids) {
		return dst, false, nil
	}
	pid := int(ids[c.next])
	p, err := c.t.pool.Get(pid)
	if err != nil {
		return dst, false, err
	}
	dst = ColDecode(p, dst)
	c.t.pool.Release(pid)
	c.next++
	return dst, true, nil
}
