// Package pagestore is a small disk-backed slotted-page storage engine
// with a pinning buffer pool: the physical layer under the query-executor
// substrate. The paper's Table 6 speedups come from a disk-resident
// lineitem table; this package provides the same conditions — page I/O for
// scans, point fetches through a buffer pool — so the no-index/index gap
// can be measured against storage that actually pays for reads.
package pagestore

import "encoding/binary"

// PageSize is the fixed page size in bytes (a common DBMS default).
const PageSize = 4096

// Page header layout (little endian):
//
//	[0:2)  numSlots
//	[2:4)  freeStart: offset where record space begins (records grow down
//	       from the end; the slot array grows up from byte 4)
//
// Each slot is 4 bytes: [offset uint16][length uint16]. A zero-length slot
// is a dead record.
const (
	headerSize = 4
	slotSize   = 4
)

// Page is one fixed-size slotted page.
type Page struct {
	buf [PageSize]byte
}

// Reset makes the page empty.
func (p *Page) Reset() {
	for i := range p.buf {
		p.buf[i] = 0
	}
	binary.LittleEndian.PutUint16(p.buf[2:4], PageSize)
}

// NumSlots returns the number of slots (including dead ones).
func (p *Page) NumSlots() int {
	return int(binary.LittleEndian.Uint16(p.buf[0:2]))
}

func (p *Page) freeStart() int {
	fs := int(binary.LittleEndian.Uint16(p.buf[2:4]))
	if fs == 0 {
		return PageSize // zero value counts as an empty page
	}
	return fs
}

// FreeSpace returns the bytes available for one more record (including its
// slot entry).
func (p *Page) FreeSpace() int {
	used := headerSize + p.NumSlots()*slotSize
	free := p.freeStart() - used - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// reserve allocates a slot for an n-byte record and returns the record's
// bytes for the caller to fill in place, so a record is written once,
// straight into the page. ok is false when n does not fit; a zero-length
// record is a dead slot.
func (p *Page) reserve(n int) (rec []byte, slot int, ok bool) {
	if n > p.FreeSpace() || n > 0xFFFF {
		return nil, 0, false
	}
	slot = p.NumSlots()
	off := p.freeStart() - n
	slotOff := headerSize + slot*slotSize
	binary.LittleEndian.PutUint16(p.buf[slotOff:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[slotOff+2:], uint16(n))
	binary.LittleEndian.PutUint16(p.buf[0:2], uint16(slot+1))
	binary.LittleEndian.PutUint16(p.buf[2:4], uint16(off))
	return p.buf[off : off+n : off+n], slot, true
}

// Get returns the record in the given slot. The returned slice aliases the
// page buffer; copy it to retain it past the page's lifetime. Dead slots
// return nil, true; out-of-range slots return nil, false.
func (p *Page) Get(slot int) ([]byte, bool) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, false
	}
	slotOff := headerSize + slot*slotSize
	off := int(binary.LittleEndian.Uint16(p.buf[slotOff:]))
	length := int(binary.LittleEndian.Uint16(p.buf[slotOff+2:]))
	if length == 0 {
		return nil, true
	}
	if off+length > PageSize {
		return nil, false
	}
	return p.buf[off : off+length], true
}

// Bytes exposes the raw page for file I/O.
func (p *Page) Bytes() []byte { return p.buf[:] }
