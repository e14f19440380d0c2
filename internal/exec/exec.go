// Package exec implements the five generic operator categories of §1 of the
// paper — lookup, range select, sorting, grouping and join — as vectorized
// operators over column slices (vector.go), which the Table 6 experiment
// and the data-plane benchmark run. The row-at-a-time functions in this file
// are their scalar references: check.AuditVectorized proves every
// vectorized operator returns exactly what its reference returns. The index
// paths of Table 6 walk bptree and pagestore directly.
package exec

import (
	"sort"

	"idxflow/internal/bptree"
	"idxflow/internal/tpch"
)

// KeyFunc extracts an int64 sort/lookup key from a row.
type KeyFunc func(r tpch.Row) int64

// OrderKey returns the row's order key.
func OrderKey(r tpch.Row) int64 { return r.OrderKey }

// CommitDate returns the row's commit date as days.
func CommitDate(r tpch.Row) int64 { return int64(r.CommitDate) }

// BuildBTree bulk-loads a B+Tree index mapping key to row position.
func BuildBTree(rows []tpch.Row, key KeyFunc) (*bptree.Tree, error) {
	keys := make([]int64, len(rows))
	vals := make([]int64, len(rows))
	for i, r := range rows {
		keys[i] = key(r)
		vals[i] = int64(i)
	}
	bptree.SortByKey(keys, vals)
	return bptree.BulkLoadSorted(bptree.DefaultOrder, keys, vals)
}

// HashIndex maps a key to the positions of the rows holding it — the O(1)
// lookup structure of §1.
type HashIndex map[int64][]int32

// BuildHash builds a hash index on key.
func BuildHash(rows []tpch.Row, key KeyFunc) HashIndex {
	h := make(HashIndex, len(rows)/4)
	for i, r := range rows {
		k := key(r)
		h[k] = append(h[k], int32(i))
	}
	return h
}

// Lookup returns the positions of rows with the given key.
func (h HashIndex) Lookup(k int64) []int32 { return h[k] }

// posSorter stable-sorts a position slice by its parallel key slice
// without any comparison closure: keys are extracted once up front, so a
// comparison costs two slice loads instead of two KeyFunc calls.
type posSorter struct {
	keys []int64
	pos  []int32
}

func (s posSorter) Len() int           { return len(s.pos) }
func (s posSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s posSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.pos[i], s.pos[j] = s.pos[j], s.pos[i]
}

// ScanOrderBy returns row positions sorted by key using an O(n log n) sort
// over the raw rows ("Order by" without an index).
func ScanOrderBy(rows []tpch.Row, key KeyFunc) []int32 {
	keys := make([]int64, len(rows))
	out := make([]int32, len(rows))
	for i := range rows {
		keys[i] = key(rows[i])
		out[i] = int32(i)
	}
	sort.Stable(posSorter{keys, out})
	return out
}

// ScanRange returns the positions of rows with lo <= key < hi via a full
// scan ("Select range" without an index, O(n)). The result is presized for
// a few percent selectivity so typical ranges append without reallocating.
func ScanRange(rows []tpch.Row, key KeyFunc, lo, hi int64) []int32 {
	out := make([]int32, 0, len(rows)/16+16)
	for i, r := range rows {
		if k := key(r); k >= lo && k < hi {
			out = append(out, int32(i))
		}
	}
	return out
}

// ScanLookup returns the position of the first row with the given key via a
// full scan ("Lookup" without an index, O(n)).
func ScanLookup(rows []tpch.Row, key KeyFunc, k int64) (int32, bool) {
	for i, r := range rows {
		if key(r) == k {
			return int32(i), true
		}
	}
	return 0, false
}

// Group is one group of an aggregation: a key, its row count and the sum of
// the rows' quantities.
type Group struct {
	Key         int64
	Count       int64
	SumQuantity int64
}

// ScanGroup aggregates rows by key with a sort-based O(n log n) grouping
// ("Grouping ... can be efficiently performed using sorting", §1): rows
// arriving in key order are folded into groups.
func ScanGroup(rows []tpch.Row, key KeyFunc) []Group {
	var out []Group
	var cur *Group
	for _, pos := range ScanOrderBy(rows, key) {
		r := rows[pos]
		k := key(r)
		if cur == nil || cur.Key != k {
			out = append(out, Group{Key: k})
			cur = &out[len(out)-1]
		}
		cur.Count++
		cur.SumQuantity += int64(r.Quantity)
	}
	return out
}

// JoinPair is one matched pair of row positions from a join.
type JoinPair struct {
	Left, Right int32
}

// NestedLoopJoin joins two row sets on equal keys in O(n*m) ("Join" without
// an index). As with SortMergeJoin, a 1:1 join yields min(n, m) pairs, so
// the result starts at that capacity and only true many-many key runs grow
// it.
func NestedLoopJoin(left, right []tpch.Row, lkey, rkey KeyFunc) []JoinPair {
	hint := len(left)
	if len(right) < hint {
		hint = len(right)
	}
	out := make([]JoinPair, 0, hint)
	for i, l := range left {
		lk := lkey(l)
		for j, r := range right {
			if rkey(r) == lk {
				out = append(out, JoinPair{int32(i), int32(j)})
			}
		}
	}
	return out
}

// SortMergeJoin joins two row sets whose sorted order is provided by
// indexes, in O(n + m + matches) ("the complexity of sort-merge join is
// O(n+m) if the inputs are sorted", §1).
func SortMergeJoin(leftTree, rightTree *bptree.Tree) []JoinPair {
	type entry struct {
		k int64
		v int32
	}
	collect := func(t *bptree.Tree) []entry {
		out := make([]entry, 0, t.Len())
		t.Scan(func(k, v int64) bool {
			out = append(out, entry{k, int32(v)})
			return true
		})
		return out
	}
	ls, rs := collect(leftTree), collect(rightTree)
	// A 1:1 join yields min(n, m) pairs; start there and let true many-many
	// key runs grow the slice.
	hint := len(ls)
	if len(rs) < hint {
		hint = len(rs)
	}
	out := make([]JoinPair, 0, hint)
	i, j := 0, 0
	for i < len(ls) && j < len(rs) {
		switch {
		case ls[i].k < rs[j].k:
			i++
		case ls[i].k > rs[j].k:
			j++
		default:
			k := ls[i].k
			jStart := j
			for i < len(ls) && ls[i].k == k {
				for j = jStart; j < len(rs) && rs[j].k == k; j++ {
					out = append(out, JoinPair{ls[i].v, rs[j].v})
				}
				i++
			}
		}
	}
	return out
}
