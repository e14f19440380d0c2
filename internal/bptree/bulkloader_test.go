package bptree

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// oracleLeaves carves sorted entries into leaves in one pass over the
// whole input: order entries per leaf, each extended past a run of equal
// keys. It is the rule BulkLoader applies to a stream.
func oracleLeaves(order int, keys, vals []int64) (lk, lv [][]int64) {
	for i := 0; i < len(keys); {
		end := min(i+order, len(keys))
		for end < len(keys) && keys[end] == keys[end-1] {
			end++
		}
		lk, lv = append(lk, keys[i:end]), append(lv, vals[i:end])
		i = end
	}
	return lk, lv
}

// leafChain returns the tree's leaves in chain order.
func leafChain(t *Tree) []*node {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	var leaves []*node
	for ; n != nil; n = n.next {
		leaves = append(leaves, n)
	}
	return leaves
}

// streamLoad feeds sorted entries to a fresh BulkLoader in batches of the
// given size and returns the loader with its tree.
func streamLoad(tb testing.TB, order, batch int, keys, vals []int64) (*BulkLoader, *Tree) {
	tb.Helper()
	bl := NewBulkLoader(order)
	for i := 0; i < len(keys); i += batch {
		end := min(i+batch, len(keys))
		if err := bl.Append(keys[i:end], vals[i:end]); err != nil {
			tb.Fatal(err)
		}
	}
	tree, err := bl.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return bl, tree
}

// TestBulkLoaderMatchesBulkLoadSorted loads the same sorted data with
// BulkLoadSorted and streamed in varied batch sizes, and requires a valid
// tree whose leaves are, one by one, the oracle's: the same keys, values
// and lengths.
func TestBulkLoaderMatchesBulkLoadSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 10_000
	keys := make([]int64, n)
	vals := make([]int64, n)
	k := int64(0)
	for i := range keys {
		// Dense duplicates: runs of up to 600 equal keys stress the
		// never-split-a-run leaf boundary rule across batch boundaries.
		if rng.Intn(100) != 0 {
			k += int64(rng.Intn(3)) // frequent repeats
		} else {
			k += int64(rng.Intn(600))
		}
		keys[i] = k
		vals[i] = int64(i)
	}
	// A run of 10,000 equal keys outgrows a streaming loader's block, so
	// its arrays move while the run is pending.
	long, longVals := make([]int64, 3*n), make([]int64, 3*n)
	for i := range long {
		long[i], longVals[i] = int64(min(max(i-n, 0), n+1)), int64(i)
	}

	for _, tc := range []struct {
		name       string
		keys, vals []int64
	}{
		{"dense duplicates", keys, vals},
		{"run longer than a block", long, longVals},
	} {
		wk, wv := oracleLeaves(DefaultOrder, tc.keys, tc.vals)
		check := func(how string, tree *Tree) {
			if err := tree.Validate(); err != nil {
				t.Fatalf("%s, %s: %v", tc.name, how, err)
			}
			if tree.Len() != len(tc.keys) {
				t.Fatalf("%s, %s: tree.Len = %d, want %d", tc.name, how, tree.Len(), len(tc.keys))
			}
			leaves := leafChain(tree)
			if len(leaves) != len(wk) {
				t.Fatalf("%s, %s: %d leaves, the oracle carves %d", tc.name, how, len(leaves), len(wk))
			}
			for i, leaf := range leaves {
				if !slices.Equal(leaf.keys, wk[i]) || !slices.Equal(leaf.vals, wv[i]) {
					t.Fatalf("%s, %s: leaf %d holds %d entries from key %d, the oracle's %d from key %d",
						tc.name, how, i, len(leaf.keys), leaf.keys[0], len(wk[i]), wk[i][0])
				}
			}
		}
		tree, err := BulkLoadSorted(DefaultOrder, tc.keys, tc.vals)
		if err != nil {
			t.Fatal(err)
		}
		check("BulkLoadSorted", tree)
		for _, batch := range []int{1, 7, 256, 1024, len(tc.keys)} {
			_, tree := streamLoad(t, DefaultOrder, batch, tc.keys, tc.vals)
			check(fmt.Sprintf("batches of %d", batch), tree)
		}
	}
}

// TestBulkLoaderAllocations: a streamed load allocates one node per leaf,
// the internal nodes and a pair of arrays per block of leaves, not a pair
// of arrays per leaf.
func TestBulkLoaderAllocations(t *testing.T) {
	keys, vals := benchEntries(150_000)
	var tree *Tree
	allocs := testing.AllocsPerRun(1, func() {
		_, tree = streamLoad(t, DefaultOrder, 1024, keys, vals)
	})
	nodes, leaves := tree.Stats()
	internal := nodes - leaves
	blocks := len(keys)/(blockLeaves*DefaultOrder) + 1
	// An internal node is three objects (node, keys, children); each block
	// is two arrays and at most one growth of the leaf list; a dozen more
	// cover the loader, the tree and buildInternal's level slices.
	if limit := leaves + 3*internal + 3*blocks + 12; allocs > float64(limit) {
		t.Errorf("streaming %d entries: %.0f allocations for %d leaves and %d internal nodes, want <= %d",
			len(keys), allocs, leaves, internal, limit)
	}
}

// TestBulkLoaderSpareCapacity: the arrays a streamed load leaves behind
// have at most one block of unused capacity, and BulkLoadSorted's arrays,
// sized to its input, none.
func TestBulkLoaderSpareCapacity(t *testing.T) {
	keys, vals := benchEntries(150_000)
	bl, _ := streamLoad(t, DefaultOrder, 1024, keys, vals)
	block := blockLeaves * DefaultOrder
	if spare := cap(bl.keys) - len(bl.keys); spare > block || cap(bl.vals)-len(bl.vals) != spare {
		t.Errorf("streamed load: %d keys and %d vals of spare capacity, want equal and <= %d",
			spare, cap(bl.vals)-len(bl.vals), block)
	}
	one := newBulkLoader(DefaultOrder, len(keys))
	if err := one.Append(keys, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := one.Finish(); err != nil {
		t.Fatal(err)
	}
	if cap(one.keys) != len(keys) || cap(one.vals) != len(vals) {
		t.Errorf("one-batch load: arrays of cap %d and %d for %d entries", cap(one.keys), cap(one.vals), len(keys))
	}
}

// A run of equal keys grows the pending leaf past order; the sealed leaf
// must hold its entries in arrays of exactly their length, whatever the
// staging grew to. Runs of about 59 equal keys across a leaf of 256 are the
// commit-date index's shape.
func TestBulkLoaderLeavesExact(t *testing.T) {
	const n = 40_000
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i / 59)
		vals[i] = int64(i)
	}
	bl := NewBulkLoader(DefaultOrder)
	for i := 0; i < n; i += 1024 {
		end := min(i+1024, n)
		if err := bl.Append(keys[i:end], vals[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := bl.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	leaf := tree.root
	for !leaf.leaf {
		leaf = leaf.children[0]
	}
	leaves, overflowed, entries := 0, 0, 0
	for ; leaf != nil; leaf = leaf.next {
		if cap(leaf.keys) != len(leaf.keys) || cap(leaf.vals) != len(leaf.vals) {
			t.Fatalf("leaf %d: %d keys in cap %d, %d vals in cap %d",
				leaves, len(leaf.keys), cap(leaf.keys), len(leaf.vals), cap(leaf.vals))
		}
		if len(leaf.keys) > DefaultOrder {
			overflowed++
		}
		leaves++
		entries += len(leaf.keys)
	}
	if entries != n {
		t.Fatalf("leaf chain holds %d entries, want %d", entries, n)
	}
	if overflowed < leaves/2 {
		t.Fatalf("%d of %d leaves past order: the test must exercise overflowing runs", overflowed, leaves)
	}
}

func TestBulkLoaderEmpty(t *testing.T) {
	bl := NewBulkLoader(DefaultOrder)
	tree, err := bl.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 0 {
		t.Fatalf("empty loader tree has %d entries", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tree.Get(5); ok {
		t.Fatal("Get on an empty loaded tree found a value")
	}
}

func TestBulkLoaderErrors(t *testing.T) {
	bl := NewBulkLoader(DefaultOrder)
	if err := bl.Append([]int64{1, 2}, []int64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := bl.Append([]int64{5, 4}, []int64{0, 0}); err == nil {
		t.Fatal("in-batch regression accepted")
	}
	bl = NewBulkLoader(DefaultOrder)
	if err := bl.Append([]int64{10}, []int64{0}); err != nil {
		t.Fatal(err)
	}
	if err := bl.Append([]int64{9}, []int64{0}); err == nil {
		t.Fatal("cross-batch regression accepted")
	}
	if _, err := bl.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := bl.Append([]int64{11}, []int64{0}); err == nil {
		t.Fatal("Append after Finish accepted")
	}
	if _, err := bl.Finish(); err == nil {
		t.Fatal("double Finish accepted")
	}
}
