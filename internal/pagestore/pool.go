package pagestore

import (
	"container/list"
	"fmt"
)

// Pool is a fixed-capacity buffer pool over a page file with LRU
// replacement and pin counting. Hit/miss statistics make cache behaviour
// observable in experiments.
type Pool struct {
	file   *File
	frames int

	byID  map[int]*frame
	order *list.List // front = most recently used

	// spare is a frame outside byID and order, left by a miss whose read
	// failed; the next miss takes it instead of allocating. It is non-nil
	// only while fewer than frames pages are resident.
	spare *frame

	hits, misses int64
}

type frame struct {
	id   int
	page Page
	pins int
	el   *list.Element // nil while the frame is the spare
}

// NewPool returns a buffer pool of the given number of frames (minimum 1).
func NewPool(file *File, frames int) *Pool {
	if frames < 1 {
		frames = 1
	}
	return &Pool{
		file:   file,
		frames: frames,
		byID:   make(map[int]*frame, frames),
		order:  list.New(),
	}
}

// Get pins page id and returns it. Callers must Release it when done.
//
// The *Page, and any record slice Page.Get returned from it, is valid only
// until that Release: a miss at capacity reads the new page into the
// evicted frame's buffer, so an unpinned page's bytes can become another
// page's at the next Get. Decode or copy what must outlive the pin.
func (pl *Pool) Get(id int) (*Page, error) {
	if fr, ok := pl.byID[id]; ok {
		pl.hits++
		fr.pins++
		pl.order.MoveToFront(fr.el)
		return &fr.page, nil
	}
	pl.misses++
	fr := pl.spare
	if len(pl.byID) >= pl.frames {
		var err error
		if fr, err = pl.evict(); err != nil {
			return nil, err
		}
	} else if fr == nil {
		fr = new(frame)
	}
	pl.spare = nil
	if err := pl.file.ReadPage(id, &fr.page); err != nil {
		// The victim is gone either way; its frame waits for the next miss.
		if fr.el != nil {
			pl.order.Remove(fr.el)
			fr.el = nil
		}
		pl.spare = fr
		return nil, err
	}
	fr.id, fr.pins = id, 1
	if fr.el != nil {
		pl.order.MoveToFront(fr.el)
	} else {
		fr.el = pl.order.PushFront(fr)
	}
	pl.byID[id] = fr
	return &fr.page, nil
}

// Release unpins page id.
func (pl *Pool) Release(id int) {
	if fr, ok := pl.byID[id]; ok && fr.pins > 0 {
		fr.pins--
	}
}

// evict unmaps the least recently used unpinned frame and returns it for
// reuse. The frame keeps its place in order until Get moves or removes it.
func (pl *Pool) evict() (*frame, error) {
	for el := pl.order.Back(); el != nil; el = el.Prev() {
		fr := el.Value.(*frame)
		if fr.pins == 0 {
			delete(pl.byID, fr.id)
			return fr, nil
		}
	}
	return nil, fmt.Errorf("pagestore: all %d frames pinned", pl.frames)
}

// Stats returns the cumulative hit and miss counts.
func (pl *Pool) Stats() (hits, misses int64) { return pl.hits, pl.misses }
