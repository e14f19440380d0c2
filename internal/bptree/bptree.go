// Package bptree implements an in-memory B+Tree with int64 keys and values,
// built once by bulk loading sorted entries and then read by point lookups
// and sorted range scans. It is the physical index structure behind the
// query-executor substrate used to measure the index speedups of Table 6
// of the paper. A tree is built in one of two ways: BulkLoadSorted over
// parallel key/value slices in memory, or BulkLoader from sorted batches
// streamed out of an external sort.
//
// Duplicate keys are supported. To keep lookups and range scans exact, a
// run of equal keys is never split across two leaves: a leaf boundary moves
// past the run (so a leaf holding a single key value may grow past the
// nominal order).
package bptree

import (
	"errors"
	"fmt"
	"sort"
)

// DefaultOrder is the default maximum number of keys per node, sized so a
// node of 16-byte entries roughly fills a 4 KB disk block.
const DefaultOrder = 256

type node struct {
	leaf     bool
	keys     []int64
	children []*node // internal nodes only
	vals     []int64 // leaf nodes only
	next     *node   // leaf chain
}

// Tree is a B+Tree. The zero value is not usable; build one with
// BulkLoadSorted or a BulkLoader.
type Tree struct {
	root  *node
	order int // max keys per node (nominal)
	size  int
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Order returns the nominal maximum keys per node.
func (t *Tree) Order() int { return t.order }

// Height returns the number of levels (1 for a lone leaf root).
func (t *Tree) Height() int {
	h, n := 1, t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

// findLeaf descends to the leaf that contains key (equal separators send
// the search right, and no leaf boundary divides an equal-key run, so the
// leaf is unique).
func (t *Tree) findLeaf(key int64) *node {
	n := t.root
	for !n.leaf {
		pos := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		n = n.children[pos]
	}
	return n
}

// Get returns the value of the first entry with the given key.
func (t *Tree) Get(key int64) (int64, bool) {
	n := t.findLeaf(key)
	pos := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if pos < len(n.keys) && n.keys[pos] == key {
		return n.vals[pos], true
	}
	return 0, false
}

// Range calls visit for every entry with lo <= key < hi, in key order.
// Iteration stops early if visit returns false.
func (t *Tree) Range(lo, hi int64, visit func(key, val int64) bool) {
	if hi <= lo {
		return
	}
	n := t.findLeaf(lo)
	pos := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= lo })
	for n != nil {
		for ; pos < len(n.keys); pos++ {
			if n.keys[pos] >= hi {
				return
			}
			if !visit(n.keys[pos], n.vals[pos]) {
				return
			}
		}
		n = n.next
		pos = 0
	}
}

// Scan calls visit for every entry in key order (the sorted-leaves property
// that makes order-by and group-by O(n), §1 of the paper).
func (t *Tree) Scan(visit func(key, val int64) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for n != nil {
		for i := range n.keys {
			if !visit(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
	}
}

// BulkLoadSorted builds a tree in O(n) from parallel key/value slices
// sorted by key (ties in any order). The inputs are copied once into
// exactly-sized backing arrays that the leaf level subslices in place, so
// the whole load performs two data allocations regardless of tree size.
func BulkLoadSorted(order int, keys, vals []int64) (*Tree, error) {
	if order < 4 {
		order = 4
	}
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("bptree: BulkLoadSorted length mismatch: %d keys, %d vals", len(keys), len(vals))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return nil, fmt.Errorf("bptree: BulkLoadSorted input not sorted at %d", i)
		}
	}
	ks := make([]int64, len(keys))
	copy(ks, keys)
	vs := make([]int64, len(vals))
	copy(vs, vals)
	return bulkFromSorted(order, ks, vs), nil
}

// kvSorter stable-sorts parallel key/value slices by key.
type kvSorter struct{ keys, vals []int64 }

func (s kvSorter) Len() int           { return len(s.keys) }
func (s kvSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s kvSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// SortByKey stable-sorts the parallel key/value slices by key, preserving
// the relative order of equal keys — the preparation step for
// BulkLoadSorted when entries arrive unsorted.
func SortByKey(keys, vals []int64) { sort.Stable(kvSorter{keys, vals}) }

// bulkFromSorted builds the tree over already-sorted parallel slices,
// taking ownership of them: each leaf is a full-capacity subslice of the
// inputs, which makes the leaf level allocation-free.
func bulkFromSorted(order int, keys, vals []int64) *Tree {
	t := &Tree{order: order, size: len(keys)}
	if len(keys) == 0 {
		t.root = &node{leaf: true}
		return t
	}

	// Carve leaves in chunks of ~order entries, extending each chunk so a
	// key run never crosses a boundary.
	leaves := make([]*node, 0, (len(keys)+order-1)/order)
	for i := 0; i < len(keys); {
		end := i + order
		if end > len(keys) {
			end = len(keys)
		}
		for end < len(keys) && keys[end] == keys[end-1] {
			end++
		}
		leaves = append(leaves, &node{
			leaf: true,
			keys: keys[i:end:end],
			vals: vals[i:end:end],
		})
		i = end
	}
	for i := 0; i+1 < len(leaves); i++ {
		leaves[i].next = leaves[i+1]
	}
	t.root = buildInternal(order, leaves)
	return t
}

// buildInternal builds the internal levels bottom-up over the given leaf
// (or lower-level) nodes with exactly-sized nodes, returning the root.
func buildInternal(order int, leaves []*node) *node {
	level := leaves
	for len(level) > 1 {
		parents := make([]*node, 0, (len(level)+order)/(order+1))
		for i := 0; i < len(level); {
			end := i + order + 1 // children per parent
			if end > len(level) {
				end = len(level)
			}
			// Avoid leaving a lone child in the last parent.
			if rem := len(level) - end; rem == 1 {
				end--
			}
			p := &node{
				keys:     make([]int64, 0, end-i-1),
				children: make([]*node, 0, end-i),
			}
			for j := i; j < end; j++ {
				p.children = append(p.children, level[j])
				if j > i {
					p.keys = append(p.keys, minKey(level[j]))
				}
			}
			parents = append(parents, p)
			i = end
		}
		level = parents
	}
	return level[0]
}

// BulkLoader builds a tree incrementally from sorted (key, value) batches,
// sealing full leaves as the stream arrives — the streaming counterpart of
// BulkLoadSorted for out-of-core builds (external-sort merges) where the
// full key array never exists in memory. Keys must arrive in
// non-decreasing order across all Append calls; Finish assembles the
// internal levels and returns the tree.
type BulkLoader struct {
	order  int
	leaves []*node
	// curKeys and curVals stage the pending leaf. They are reused from leaf
	// to leaf; seal copies them out at their exact length, so a run of
	// equal keys that grows a leaf past order leaves no slack behind.
	curKeys  []int64
	curVals  []int64
	lastKey  int64
	any      bool
	finished bool
}

// NewBulkLoader returns a loader for a tree of the given order (orders
// below 4 are raised to 4, matching BulkLoadSorted).
func NewBulkLoader(order int) *BulkLoader {
	if order < 4 {
		order = 4
	}
	return &BulkLoader{
		order:   order,
		curKeys: make([]int64, 0, order),
		curVals: make([]int64, 0, order),
	}
}

// Append adds a sorted batch of entries. The slices are copied; callers
// may reuse them. Returns an error if keys regress within the batch or
// against the previous batch.
func (b *BulkLoader) Append(keys, vals []int64) error {
	if b.finished {
		return errors.New("bptree: BulkLoader used after Finish")
	}
	if len(keys) != len(vals) {
		return fmt.Errorf("bptree: BulkLoader.Append length mismatch: %d keys, %d vals", len(keys), len(vals))
	}
	for i, k := range keys {
		if b.any && k < b.lastKey {
			return fmt.Errorf("bptree: BulkLoader.Append key %d at %d regresses below %d", k, i, b.lastKey)
		}
		// Seal the pending leaf once it is full and the next key differs —
		// the same boundary rule as bulkFromSorted: a run of equal keys is
		// never split across leaves.
		if len(b.curKeys) >= b.order && k != b.lastKey {
			b.seal()
		}
		b.curKeys = append(b.curKeys, k)
		b.curVals = append(b.curVals, vals[i])
		b.lastKey = k
		b.any = true
	}
	return nil
}

// seal turns the staged entries into a leaf whose arrays hold exactly
// them (cap == len).
func (b *BulkLoader) seal() {
	leaf := &node{
		leaf: true,
		keys: make([]int64, len(b.curKeys)),
		vals: make([]int64, len(b.curVals)),
	}
	copy(leaf.keys, b.curKeys)
	copy(leaf.vals, b.curVals)
	b.leaves = append(b.leaves, leaf)
	b.curKeys, b.curVals = b.curKeys[:0], b.curVals[:0]
}

// Finish seals the pending leaf, links the leaf chain, builds the internal
// levels and returns the tree. The loader cannot be reused afterwards.
func (b *BulkLoader) Finish() (*Tree, error) {
	if b.finished {
		return nil, errors.New("bptree: BulkLoader.Finish called twice")
	}
	b.finished = true
	if len(b.curKeys) > 0 {
		b.seal()
	}
	t := &Tree{order: b.order}
	if len(b.leaves) == 0 {
		t.root = &node{leaf: true}
		return t, nil
	}
	for i := 0; i+1 < len(b.leaves); i++ {
		b.leaves[i].next = b.leaves[i+1]
		t.size += len(b.leaves[i].keys)
	}
	t.size += len(b.leaves[len(b.leaves)-1].keys)
	t.root = buildInternal(b.order, b.leaves)
	b.leaves, b.curKeys, b.curVals = nil, nil, nil
	return t, nil
}

func minKey(n *node) int64 {
	for !n.leaf {
		n = n.children[0]
	}
	return n.keys[0]
}

// Stats returns the total node count and the leaf count of the tree. Bulk
// loading guarantees a minimum internal fanout of two, so a
// valid tree satisfies the §3 geometric-series storage bound
// nodes <= 2*leaves - 1 (the sum leaves * (1 + 1/2 + 1/4 + ...)) and
// height <= 1 + ceil(log2(leaves)); the invariant auditor checks both.
func (t *Tree) Stats() (nodes, leaves int) {
	var walk func(n *node)
	walk = func(n *node) {
		nodes++
		if n.leaf {
			leaves++
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return nodes, leaves
}

// ApproxSizeBytes estimates the memory footprint: 16 bytes per entry plus
// internal-node overhead.
func (t *Tree) ApproxSizeBytes() int64 {
	var walk func(n *node) int64
	walk = func(n *node) int64 {
		sz := int64(len(n.keys)) * 8
		if n.leaf {
			return sz + int64(len(n.vals))*8
		}
		sz += int64(len(n.children)) * 8
		for _, c := range n.children {
			sz += walk(c)
		}
		return sz
	}
	return walk(t.root)
}

// Validate checks the structural invariants: keys sorted within nodes,
// uniform leaf depth, leaf chain globally sorted, separators bounding their
// subtrees, and no key run crossing leaves. Intended for tests.
func (t *Tree) Validate() error {
	depth := -1
	var prevLeaf *node
	var count int
	var check func(n *node, d int, lo, hi *int64) error
	check = func(n *node, d int, lo, hi *int64) error {
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i] < n.keys[i-1] {
				return fmt.Errorf("bptree: unsorted keys at depth %d", d)
			}
		}
		for _, k := range n.keys {
			if lo != nil && k < *lo {
				return fmt.Errorf("bptree: key %d below separator %d", k, *lo)
			}
			if hi != nil && k >= *hi && n.leaf {
				return fmt.Errorf("bptree: leaf key %d not below separator %d", k, *hi)
			}
		}
		if n.leaf {
			if depth == -1 {
				depth = d
			} else if d != depth {
				return errors.New("bptree: leaves at different depths")
			}
			if len(n.keys) != len(n.vals) {
				return errors.New("bptree: leaf keys/vals length mismatch")
			}
			count += len(n.keys)
			if prevLeaf != nil {
				if prevLeaf.next != n {
					return errors.New("bptree: broken leaf chain")
				}
				if len(prevLeaf.keys) > 0 && len(n.keys) > 0 &&
					prevLeaf.keys[len(prevLeaf.keys)-1] >= n.keys[0] {
					return errors.New("bptree: key run crosses leaves or chain unsorted")
				}
			}
			prevLeaf = n
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("bptree: internal node with %d keys, %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			var clo, chi *int64
			if i > 0 {
				clo = &n.keys[i-1]
			} else {
				clo = lo
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			} else {
				chi = hi
			}
			if err := check(c, d+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(t.root, 0, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("bptree: size %d but %d entries found", t.size, count)
	}
	return nil
}
