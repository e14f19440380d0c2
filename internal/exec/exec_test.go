package exec

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"idxflow/internal/tpch"
)

func testRows(t *testing.T) []tpch.Row {
	t.Helper()
	return tpch.Generate(0.0005, 11) // ~3000 rows
}

func TestOrderByEquivalence(t *testing.T) {
	rows := testRows(t)
	tree, err := BuildBTree(rows, OrderKey)
	if err != nil {
		t.Fatal(err)
	}
	scan := ScanOrderBy(rows, OrderKey)
	var idx []int32 // the index's leaf order
	tree.Scan(func(k, v int64) bool { idx = append(idx, int32(v)); return true })
	if len(scan) != len(idx) || len(scan) != len(rows) {
		t.Fatalf("lengths: scan=%d idx=%d rows=%d", len(scan), len(idx), len(rows))
	}
	for i := range scan {
		if rows[scan[i]].OrderKey != rows[idx[i]].OrderKey {
			t.Fatalf("key mismatch at %d: %d vs %d", i, rows[scan[i]].OrderKey, rows[idx[i]].OrderKey)
		}
	}
	// Sorted output.
	for i := 1; i < len(scan); i++ {
		if rows[scan[i-1]].OrderKey > rows[scan[i]].OrderKey {
			t.Fatal("ScanOrderBy output not sorted")
		}
	}
}

func TestRangeEquivalence(t *testing.T) {
	rows := testRows(t)
	tree, err := BuildBTree(rows, OrderKey)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(100), int64(300)
	scan := ScanRange(rows, OrderKey, lo, hi)
	set := make(map[int32]bool, len(scan))
	for _, p := range scan {
		set[p] = true
		if k := rows[p].OrderKey; k < lo || k >= hi {
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
	rows := testRows(t)
	tree, err := BuildBTree(rows, OrderKey)
	if err != nil {
		t.Fatal(err)
	}
	hash := BuildHash(rows, OrderKey)
	for _, k := range []int64{1, 50, 200, 999999} {
		sp, sok := ScanLookup(rows, OrderKey, k)
		ip, iok := tree.Get(k)
		if sok != iok {
			t.Fatalf("Lookup(%d): scan ok=%v, index ok=%v", k, sok, iok)
		}
		if sok && rows[sp].OrderKey != rows[ip].OrderKey {
			t.Fatalf("Lookup(%d): keys differ", k)
		}
		hps := hash.Lookup(k)
		if sok != (len(hps) > 0) {
			t.Fatalf("Lookup(%d): hash disagrees with scan", k)
		}
	}
}

func TestGroupEquivalence(t *testing.T) {
	rows := testRows(t)
	want := make(map[int64]Group)
	for _, r := range rows {
		g := want[r.OrderKey]
		g.Key = r.OrderKey
		g.Count++
		g.SumQuantity += int64(r.Quantity)
		want[r.OrderKey] = g
	}
	a := ScanGroup(rows, OrderKey)
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
	left := tpch.Generate(0.0002, 3)
	right := tpch.Generate(0.0002, 4)
	ltree, err := BuildBTree(left, OrderKey)
	if err != nil {
		t.Fatal(err)
	}
	rtree, err := BuildBTree(right, OrderKey)
	if err != nil {
		t.Fatal(err)
	}
	nl := NestedLoopJoin(left, right, OrderKey, OrderKey)
	sm := SortMergeJoin(ltree, rtree)
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
		rows := make([]tpch.Row, 500)
		for i := range rows {
			rows[i] = tpch.Row{OrderKey: rng.Int63n(100), CommitDate: int32(rng.Intn(100))}
		}
		tree, err := BuildBTree(rows, OrderKey)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			lo, hi := rng.Int63n(110), rng.Int63n(110)
			if lo > hi {
				lo, hi = hi, lo
			}
			n := 0
			tree.Range(lo, hi, func(int64, int64) bool { n++; return true })
			if len(ScanRange(rows, OrderKey, lo, hi)) != n {
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
	rows := testRows(t)
	tree, err := BuildBTree(rows, CommitDate)
	if err != nil {
		t.Fatal(err)
	}
	scan := ScanRange(rows, CommitDate, 10, 50)
	n := 0
	tree.Range(10, 50, func(int64, int64) bool { n++; return true })
	if len(scan) != n {
		t.Errorf("commitdate range: scan=%d idx=%d", len(scan), n)
	}
}
