package exec

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"idxflow/internal/bptree"
	"idxflow/internal/tpch"
)

func testCols(t *testing.T) tpch.Columns {
	t.Helper()
	return tpch.GenerateColumns(0.0005, 11) // ~3000 rows
}

// buildTree bulk-loads a B+Tree index mapping each key to its position,
// the index side the scan operators are compared with: equal keys keep
// their positions' order, as the stable ScanOrderBy leaves them.
func buildTree(t *testing.T, keys []int64) *bptree.Tree {
	t.Helper()
	k := make([]int64, 0, len(keys))
	v := make([]int64, 0, len(keys))
	for _, p := range ScanOrderBy(keys) {
		k = append(k, keys[p])
		v = append(v, int64(p))
	}
	tree, err := bptree.BulkLoadSorted(bptree.DefaultOrder, k, v)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// treeRange returns the positions the tree holds for keys in [lo, hi), in
// ascending position order, as a scan returns them.
func treeRange(tree *bptree.Tree, lo, hi int64) []int32 {
	out := []int32{}
	tree.Range(lo, hi, func(_, v int64) bool { out = append(out, int32(v)); return true })
	slices.Sort(out)
	return out
}

func TestOrderByEquivalence(t *testing.T) {
	keys := testCols(t).OrderKey
	tree := buildTree(t, keys)
	scan := ScanOrderBy(keys)
	var idx []int32 // the index's leaf order
	tree.Scan(func(k, v int64) bool { idx = append(idx, int32(v)); return true })
	if len(scan) != len(idx) || len(scan) != len(keys) {
		t.Fatalf("lengths: scan=%d idx=%d rows=%d", len(scan), len(idx), len(keys))
	}
	for i := range scan {
		if keys[scan[i]] != keys[idx[i]] {
			t.Fatalf("key mismatch at %d: %d vs %d", i, keys[scan[i]], keys[idx[i]])
		}
	}
	// Sorted output.
	for i := 1; i < len(scan); i++ {
		if keys[scan[i-1]] > keys[scan[i]] {
			t.Fatal("ScanOrderBy output not sorted")
		}
	}
}

func TestRangeEquivalence(t *testing.T) {
	keys := testCols(t).OrderKey
	tree := buildTree(t, keys)
	lo, hi := int64(100), int64(300)
	scan := VecSelectRange(keys, lo, hi)
	set := make(map[int32]bool, len(scan))
	for _, p := range scan {
		set[p] = true
		if k := keys[p]; k < lo || k >= hi {
			t.Fatalf("row key %d outside [%d,%d)", k, lo, hi)
		}
	}
	n := 0
	tree.Range(lo, hi, func(k, v int64) bool {
		if !set[int32(v)] {
			t.Fatalf("index holds row %d, not in the scan result", v)
		}
		n++
		return true
	})
	if n != len(scan) {
		t.Fatalf("counts differ: scan=%d idx=%d", len(scan), n)
	}
}

func TestLookupEquivalence(t *testing.T) {
	keys := testCols(t).OrderKey
	tree := buildTree(t, keys)
	hash := VecBuildHash(keys)
	for _, k := range []int64{1, 50, 200, 999999} {
		sp, sok := VecLookup(keys, k)
		ip, iok := tree.Get(k)
		if sok != iok {
			t.Fatalf("Lookup(%d): scan ok=%v, index ok=%v", k, sok, iok)
		}
		if sok && keys[sp] != keys[ip] {
			t.Fatalf("Lookup(%d): keys differ", k)
		}
		hps := hash.Lookup(k)
		if sok != (len(hps) > 0) {
			t.Fatalf("Lookup(%d): hash disagrees with scan", k)
		}
	}
}

func TestGroupEquivalence(t *testing.T) {
	cols := testCols(t)
	want := make(map[int64]Group)
	for i, k := range cols.OrderKey {
		g := want[k]
		g.Key = k
		g.Count++
		g.SumQuantity += int64(cols.Quantity[i])
		want[k] = g
	}
	a := ScanGroup(cols.OrderKey, cols.Quantity)
	if len(a) != len(want) {
		t.Fatalf("group counts differ: %d vs %d", len(a), len(want))
	}
	for i, g := range a {
		if g != want[g.Key] {
			t.Fatalf("group %d differs: %+v vs %+v", i, g, want[g.Key])
		}
		if i > 0 && a[i-1].Key >= g.Key {
			t.Fatalf("groups out of key order at %d", i)
		}
	}
}

func TestJoinEquivalence(t *testing.T) {
	left := tpch.GenerateColumns(0.0002, 3).OrderKey
	right := tpch.GenerateColumns(0.0002, 4).OrderKey
	nl := NestedLoopJoin(left, right)
	sm := SortMergeJoin(left, right)
	if len(nl) != len(sm) {
		t.Fatalf("join sizes differ: nested=%d merge=%d", len(nl), len(sm))
	}
	canon := func(ps []JoinPair) []JoinPair {
		out := append([]JoinPair(nil), ps...)
		sort.Slice(out, func(i, j int) bool {
			if out[i].Left != out[j].Left {
				return out[i].Left < out[j].Left
			}
			return out[i].Right < out[j].Right
		})
		return out
	}
	cn, cs := canon(nl), canon(sm)
	for i := range cn {
		if cn[i] != cs[i] {
			t.Fatalf("join pair %d differs: %v / %v", i, cn[i], cs[i])
		}
	}
}

// TestRangeEquivalenceProperty checks scan/index range equivalence over
// random datasets and intervals.
func TestRangeEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]int64, 500)
		for i := range keys {
			keys[i] = rng.Int63n(100)
		}
		tree := buildTree(t, keys)
		for trial := 0; trial < 10; trial++ {
			lo, hi := rng.Int63n(110), rng.Int63n(110)
			if lo > hi {
				lo, hi = hi, lo
			}
			n := 0
			tree.Range(lo, hi, func(int64, int64) bool { n++; return true })
			if len(VecSelectRange(keys, lo, hi)) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCommitDateKey(t *testing.T) {
	dates := testCols(t).CommitDate
	tree := buildTree(t, WidenInt32(nil, dates))
	scan := VecSelectRange(dates, 10, 50)
	n := 0
	tree.Range(10, 50, func(int64, int64) bool { n++; return true })
	if len(scan) != n {
		t.Errorf("commitdate range: scan=%d idx=%d", len(scan), n)
	}
}
