// Package extsort builds B+Tree indexes out of core: the classic external
// merge sort — sorted run files, then a k-way merge — applied to the
// (key, rid) pairs of a paged row table. It is the build-side machinery
// behind the index path the paper's Table 6 measures.
//
// Sorted runs are generated concurrently by a worker pool (each worker
// sorts and writes its own run file while the reader fills the next
// buffer, the buffers recycled through a free list), and the k-way merge
// consumes a page block of pairs per run instead of single heap-popped
// entries. BuildIndexStreaming chains that
// into bptree.BulkLoader, so an index build never holds the full key
// array in memory.
package extsort

import (
	"runtime"

	"idxflow/internal/tpch"
)

// Key extracts the sort key from a row.
type Key func(r tpch.Row) int64

// Options configures an out-of-core index build.
type Options struct {
	// MemRows bounds how many rows are held in memory per sorted run
	// (minimum 1024). With W workers, up to (W+1)*MemRows rows are
	// resident at once: one buffer filling, W being sorted/written.
	MemRows int
	// Workers is the number of concurrent run sorters (0 = GOMAXPROCS).
	Workers int
	// TmpDir is the directory for intermediate run files.
	TmpDir string
}

func (o Options) withDefaults() Options {
	if o.MemRows < 1024 {
		o.MemRows = 1024
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// mergeItem is one head-of-run entry in the merge heap.
type mergeItem struct {
	key int64
	src int
}

// before orders run heads by key, then by run: runs are numbered in scan
// order, so equal keys leave the merge in scan order at any worker count.
func (a mergeItem) before(b mergeItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.src < b.src
}

// mergeHeap is a binary min-heap of run heads, sifted in place.
type mergeHeap []mergeItem

// init puts h in heap order.
func (h mergeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts the item at i toward the leaves until both children follow it.
func (h mergeHeap) down(i int) {
	it := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(it) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
}

// pop removes the head.
func (h *mergeHeap) pop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	if n > 0 {
		h.down(0)
	}
}
