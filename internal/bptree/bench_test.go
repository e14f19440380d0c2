package bptree

import (
	"math/rand"
	"testing"
)

// benchEntries returns n entries sorted by key, as parallel key/value
// slices.
func benchEntries(n int) (keys, vals []int64) {
	rng := rand.New(rand.NewSource(1))
	keys, vals = make([]int64, n), make([]int64, n)
	for i := range keys {
		keys[i], vals[i] = rng.Int63n(int64(n)), int64(i)
	}
	sortByKey(keys, vals)
	return keys, vals
}

// benchTree bulk-loads benchEntries(n).
func benchTree(b *testing.B, n int) *Tree {
	keys, vals := benchEntries(n)
	tr, err := BulkLoadSorted(DefaultOrder, keys, vals)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkBulkLoad100k(b *testing.B) {
	keys, vals := benchEntries(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BulkLoadSorted(DefaultOrder, keys, vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	tr := benchTree(b, 100_000)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(rng.Int63n(100_000))
	}
}

func BenchmarkRange1k(b *testing.B) {
	tr := benchTree(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.Range(1000, 2000, func(k, v int64) bool {
			n++
			return true
		})
	}
}

func BenchmarkScan100k(b *testing.B) {
	tr := benchTree(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.Scan(func(k, v int64) bool {
			n++
			return true
		})
	}
}
