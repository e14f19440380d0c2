// Package extsort builds B+Tree indexes out of core: the classic external
// merge sort — sorted run files, then a k-way merge — applied to the
// (key, rid) pairs of a paged row table. It is the build-side machinery
// behind the index path the paper's Table 6 measures.
//
// Sorted runs are generated concurrently by a worker pool (each worker
// sorts and writes its own run file while the reader fills the next
// buffer), and the k-way merge consumes a page block of pairs per run
// instead of single heap-popped entries. BuildIndexStreaming chains that
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

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].src < h[j].src // deterministic at any worker count
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
