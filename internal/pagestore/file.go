package pagestore

import (
	"fmt"
	"os"
)

// runPages is how many pages one write or one read-ahead system call moves
// at most: a run of 64 KiB.
const runPages = 16

// File is a page-addressed file: page i lives at byte offset i*PageSize.
//
// Physical I/O moves in runs. Append stages pages in a run buffer and
// writes the run with one call once runPages are staged, at Flush, at
// Close, and before a ReadPage of a staged page. A ReadPage of the page
// after the last one read reads up to runPages pages ahead with one call,
// and the reads that follow inside that window are served from it; any
// other page is read on its own. Files are append-only and no page is
// rewritten in place, so a window never holds stale bytes.
type File struct {
	f *os.File
	// pages counts appended pages, staged ones included; written counts
	// the pages on disk, which precede the staged ones.
	pages, written int
	run            []byte // the staged pages, written-th onward

	// ahead holds the pages aheadID onward as one read-ahead read them;
	// next is the page after the last one ReadPage returned.
	ahead         []byte
	aheadID, next int

	// Reads counts the pages ReadPage returned, for I/O accounting in
	// tests and experiments.
	Reads int64
	// Writes counts the pages written to disk.
	Writes int64

	// readCalls and writeCalls count the read and write system calls.
	readCalls, writeCalls int64
}

// Create creates (or truncates) a page file at path.
func Create(path string) (*File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &File{f: f}, nil
}

// Open opens an existing page file for reading and appending. The file
// size must be a whole number of pages.
func Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pagestore: %s size %d is not page-aligned", path, st.Size())
	}
	n := int(st.Size() / PageSize)
	return &File{f: f, pages: n, written: n}, nil
}

// Pages returns the number of pages in the file, staged ones included.
func (pf *File) Pages() int { return pf.pages }

// Append stages p as a new page and returns its page ID. It writes the run
// once runPages pages are staged; if that write fails, Append returns its
// error and the run's pages, p's included, leave the file.
func (pf *File) Append(p *Page) (int, error) {
	if pf.run == nil {
		pf.run = make([]byte, 0, runPages*PageSize)
	}
	pf.run = append(pf.run, p.Bytes()...)
	id := pf.pages
	pf.pages++
	if len(pf.run) == cap(pf.run) {
		if err := pf.Flush(); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// Flush writes the staged pages with one call. If the write fails, it
// returns the error and the staged pages leave the file: Pages and Writes
// count only the pages on disk.
func (pf *File) Flush() error {
	if len(pf.run) == 0 {
		return nil
	}
	n := len(pf.run) / PageSize
	pf.writeCalls++
	_, err := pf.f.WriteAt(pf.run, int64(pf.written)*PageSize)
	pf.run = pf.run[:0]
	if err != nil {
		pf.pages = pf.written
		return err
	}
	pf.written += n
	pf.Writes += int64(n)
	return nil
}

// ReadPage fills p with the contents of page id. A staged page's run is
// written first.
func (pf *File) ReadPage(id int, p *Page) error {
	if id < 0 || id >= pf.pages {
		return fmt.Errorf("pagestore: page %d out of range", id)
	}
	if id >= pf.written {
		if err := pf.Flush(); err != nil {
			return err
		}
	}
	if off := (id - pf.aheadID) * PageSize; id < pf.aheadID || off >= len(pf.ahead) {
		if err := pf.read(id, p); err != nil {
			return err
		}
	} else {
		copy(p.Bytes(), pf.ahead[off:off+PageSize])
	}
	pf.next = id + 1
	pf.Reads++
	return nil
}

// read fills p with page id from disk: with the pages after it into the
// read-ahead window when id follows the last page read, on its own
// otherwise.
func (pf *File) read(id int, p *Page) error {
	pf.readCalls++
	if id != pf.next {
		_, err := pf.f.ReadAt(p.Bytes(), int64(id)*PageSize)
		return err
	}
	if pf.ahead == nil {
		pf.ahead = make([]byte, runPages*PageSize)
	}
	n := min(runPages, pf.written-id)
	pf.ahead = pf.ahead[:n*PageSize]
	if _, err := pf.f.ReadAt(pf.ahead, int64(id)*PageSize); err != nil {
		pf.ahead = pf.ahead[:0]
		return err
	}
	pf.aheadID = id
	copy(p.Bytes(), pf.ahead[:PageSize])
	return nil
}

// Close writes the staged pages and closes the underlying file. It returns
// the first error of the two.
func (pf *File) Close() error {
	err := pf.Flush()
	if cerr := pf.f.Close(); err == nil {
		err = cerr
	}
	return err
}
