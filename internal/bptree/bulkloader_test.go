package bptree

import (
	"math/rand"
	"reflect"
	"testing"
)

// collect returns the full (key, val) scan of a tree.
func collect(t *Tree) ([]int64, []int64) {
	var ks, vs []int64
	t.Scan(func(k, v int64) bool {
		ks = append(ks, k)
		vs = append(vs, v)
		return true
	})
	return ks, vs
}

// TestBulkLoaderMatchesBulkLoadSorted streams the same sorted data in
// varied batch sizes and requires an identical scan, a valid tree, and the
// same structural stats as the one-shot loader.
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
	want, err := BulkLoadSorted(DefaultOrder, keys, vals)
	if err != nil {
		t.Fatal(err)
	}

	for _, batch := range []int{1, 7, 256, 1024, n} {
		bl := NewBulkLoader(DefaultOrder)
		for i := 0; i < n; i += batch {
			end := i + batch
			if end > n {
				end = n
			}
			if err := bl.Append(keys[i:end], vals[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		tree, err := bl.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if tree.Len() != n {
			t.Fatalf("batch %d: tree.Len = %d, want %d", batch, tree.Len(), n)
		}
		gk, gv := collect(tree)
		wk, wv := collect(want)
		if !reflect.DeepEqual(gk, wk) || !reflect.DeepEqual(gv, wv) {
			t.Fatalf("batch %d: scan differs from BulkLoadSorted", batch)
		}
		gn, gl := tree.Stats()
		wn, wl := want.Stats()
		if gn != wn || gl != wl {
			t.Fatalf("batch %d: stats (%d nodes, %d leaves) differ from one-shot (%d, %d)",
				batch, gn, gl, wn, wl)
		}
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
