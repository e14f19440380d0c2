package pagestore

import (
	"fmt"
	"os"
)

// File is a page-addressed file: page i lives at byte offset i*PageSize.
type File struct {
	f     *os.File
	pages int
	// Reads counts physical page reads, for I/O accounting in tests and
	// experiments.
	Reads int64
	// Writes counts physical page writes.
	Writes int64
}

// Create creates (or truncates) a page file at path.
func Create(path string) (*File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &File{f: f}, nil
}

// Open opens an existing page file. The file size must be a whole number
// of pages.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
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
	return &File{f: f, pages: int(st.Size() / PageSize)}, nil
}

// Pages returns the number of pages in the file.
func (pf *File) Pages() int { return pf.pages }

// Append writes p as a new page and returns its page ID.
func (pf *File) Append(p *Page) (int, error) {
	id := pf.pages
	if _, err := pf.f.WriteAt(p.Bytes(), int64(id)*PageSize); err != nil {
		return 0, err
	}
	pf.pages++
	pf.Writes++
	return id, nil
}

// ReadPage fills p with the contents of page id.
func (pf *File) ReadPage(id int, p *Page) error {
	if id < 0 || id >= pf.pages {
		return fmt.Errorf("pagestore: page %d out of range", id)
	}
	if _, err := pf.f.ReadAt(p.Bytes(), int64(id)*PageSize); err != nil {
		return err
	}
	pf.Reads++
	return nil
}

// Close closes the underlying file.
func (pf *File) Close() error { return pf.f.Close() }
