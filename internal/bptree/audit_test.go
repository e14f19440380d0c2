package bptree_test

// External-package wiring of the invariant auditor (internal/check,
// DESIGN.md §8): a tree loaded from entries in arrival order (SortByKey,
// then BulkLoadSorted) must stay inside the §3 geometric-series storage
// bound and keep the sorted-leaf scan contract the executor relies on.

import (
	"math/rand"
	"testing"

	"idxflow/internal/bptree"
	"idxflow/internal/check"
)

func TestAuditInsertedTrees(t *testing.T) {
	for _, order := range []int{3, 4, 7, 16, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(3000)
			keys, vals := make([]int64, n), make([]int64, n)
			for i := range keys {
				keys[i], vals[i] = int64(rng.Intn(n)), int64(i)
			}
			bptree.SortByKey(keys, vals)
			tr, err := bptree.BulkLoadSorted(order, keys, vals)
			if err != nil {
				t.Fatalf("order %d seed %d: %v", order, seed, err)
			}
			if err := check.AuditTree(tr); err != nil {
				t.Errorf("order %d seed %d: %v", order, seed, err)
			}
		}
	}
}

func TestAuditBulkLoadedTrees(t *testing.T) {
	for _, order := range []int{4, 8, 33} {
		for _, n := range []int{1, 2, 100, 4096} {
			keys := make([]int64, n)
			vals := make([]int64, n)
			rng := rand.New(rand.NewSource(int64(order*100000 + n)))
			for i := range keys {
				keys[i] = int64(rng.Intn(n * 2))
				vals[i] = int64(i)
			}
			bptree.SortByKey(keys, vals)
			tr, err := bptree.BulkLoadSorted(order, keys, vals)
			if err != nil {
				t.Fatalf("order %d n %d: %v", order, n, err)
			}
			if err := check.AuditTree(tr); err != nil {
				t.Errorf("order %d n %d: %v", order, n, err)
			}
		}
	}
}
