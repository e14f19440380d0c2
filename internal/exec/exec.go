// Package exec implements the five generic operator categories of §1 of the
// paper — lookup, range select, sorting, grouping and join — over key
// columns. Lookup and range select are one scan each (vector.go). Sorting,
// grouping, the hash build and the sort-merge join have two algorithms: the
// scalar ones in this file (comparison sort, sort-based grouping, per-row
// inserts into a Go map, nested-loop and comparison sort-merge joins) and
// the vectorized ones of vector.go (radix and counting sorts, counting
// grouping, a HashIndex built by runs, radix sort-merge join). HashIndex is
// the O(1) lookup structure of §1: one flat slice with an entry per
// distinct key, chained into buckets by index, not a Go map. The scalar
// operators are the no-index side of the Table 6 experiment's group-by and
// join cells and the reference of check.AuditVectorized, which proves
// every vectorized operator returns exactly what its scalar counterpart
// returns; range select and lookup it holds to an answer read off the
// stable comparison sort. The index paths of Table 6 walk bptree and
// pagestore directly.
package exec

import (
	"cmp"
	"slices"
)

// BuildHash builds the map from each key to the positions of the rows
// holding it, one insert per row: the scalar reference of VecBuildHash.
func BuildHash(keys []int64) map[int64][]int32 {
	h := make(map[int64][]int32, len(keys)/4)
	for i, k := range keys {
		h[k] = append(h[k], int32(i))
	}
	return h
}

// identity returns the positions 0..n-1, in order.
func identity(n int) []int32 {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(i)
	}
	return pos
}

// ScanOrderBy returns the row positions stably sorted by key with an
// O(n log n) comparison sort ("Order by" without an index).
func ScanOrderBy(keys []int64) []int32 {
	pos := identity(len(keys))
	slices.SortStableFunc(pos, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	return pos
}

// Group is one group of an aggregation: a key, its row count and the sum of
// the rows' quantities.
type Group struct {
	Key         int64
	Count       int64
	SumQuantity int64
}

// ScanGroup aggregates a key column with its quantity column by sorting
// ("Grouping ... can be efficiently performed using sorting", §1): rows
// taken in key order are folded into groups.
func ScanGroup(keys []int64, quantity []int32) []Group {
	var out []Group
	for _, p := range ScanOrderBy(keys) {
		if len(out) == 0 || out[len(out)-1].Key != keys[p] {
			out = append(out, Group{Key: keys[p]})
		}
		g := &out[len(out)-1]
		g.Count++
		g.SumQuantity += int64(quantity[p])
	}
	return out
}

// JoinPair is one matched pair of row positions from a join.
type JoinPair struct {
	Left, Right int32
}

// NestedLoopJoin joins two key columns on equal keys in O(n*m) ("Join"
// without an index), left position major, right position minor. A 1:1 join
// yields min(n, m) pairs, so the result starts at that capacity and only
// true many-many key runs grow it.
func NestedLoopJoin(left, right []int64) []JoinPair {
	out := make([]JoinPair, 0, min(len(left), len(right)))
	for i, lk := range left {
		for j, rk := range right {
			if rk == lk {
				out = append(out, JoinPair{int32(i), int32(j)})
			}
		}
	}
	return out
}

// SortMergeJoin joins two key columns by stably sorting both position
// arrays and merging the sorted runs ("the complexity of sort-merge join is
// O(n+m) if the inputs are sorted", §1). Output is key major, then left
// position, then right position.
func SortMergeJoin(left, right []int64) []JoinPair {
	ls, rs := ScanOrderBy(left), ScanOrderBy(right)
	out := make([]JoinPair, 0, min(len(ls), len(rs)))
	i, j := 0, 0
	for i < len(ls) && j < len(rs) {
		switch k := left[ls[i]]; {
		case k < right[rs[j]]:
			i++
		case k > right[rs[j]]:
			j++
		default:
			jStart := j
			for ; i < len(ls) && left[ls[i]] == k; i++ {
				for j = jStart; j < len(rs) && right[rs[j]] == k; j++ {
					out = append(out, JoinPair{ls[i], rs[j]})
				}
			}
		}
	}
	return out
}
