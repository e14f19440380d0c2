package exec

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"idxflow/internal/tpch"
)

// vecTestColumns returns a columnar dataset plus its row form for golden
// comparisons.
func vecTestColumns(t *testing.T) (tpch.Columns, []tpch.Row) {
	t.Helper()
	rows := tpch.Generate(0.0008, 19) // ~4800 rows, several BatchSize blocks
	return tpch.ColumnsFromRows(rows), rows
}

func TestVecSelectRangeGolden(t *testing.T) {
	cols, rows := vecTestColumns(t)
	for _, bounds := range [][2]int64{{100, 300}, {0, 1}, {-5, 5}, {1 << 40, 1 << 41}, {500, 500}} {
		lo, hi := bounds[0], bounds[1]
		scalar := ScanRange(rows, OrderKey, lo, hi)
		vec := VecSelectRange(cols.OrderKey, lo, hi)
		if !reflect.DeepEqual(scalar, vec) {
			t.Fatalf("range [%d,%d): scalar %d positions, vec %d", lo, hi, len(scalar), len(vec))
		}
	}
	// int32 column via the generic instantiation.
	scalar := ScanRange(rows, CommitDate, 10, 50)
	vec := VecSelectRange(cols.CommitDate, 10, 50)
	if !reflect.DeepEqual(scalar, vec) {
		t.Fatal("commitdate range differs")
	}
}

func TestVecLookupGolden(t *testing.T) {
	cols, rows := vecTestColumns(t)
	for _, k := range []int64{1, 57, rows[len(rows)-1].OrderKey, 1 << 50} {
		sp, sok := ScanLookup(rows, OrderKey, k)
		vp, vok := VecLookup(cols.OrderKey, k)
		if sok != vok || sp != vp {
			t.Fatalf("lookup %d: scalar (%d,%v) vec (%d,%v)", k, sp, sok, vp, vok)
		}
	}
}

func TestVecSortPositionsGolden(t *testing.T) {
	cols, rows := vecTestColumns(t)
	scalar := ScanOrderBy(rows, OrderKey)
	vec := VecSortPositions(cols.OrderKey)
	if !reflect.DeepEqual(scalar, vec) {
		t.Fatal("sorted positions differ (stability or order)")
	}
}

// adversarialKeys draws a key column of 1–3000 keys from one of five
// distributions: negatives, duplicates, extremes, already/reverse sorted.
func adversarialKeys(rng *rand.Rand) []int64 {
	n := 1 + rng.Intn(3000)
	keys := make([]int64, n)
	switch rng.Intn(5) {
	case 0: // random full-range, negatives included
		for i := range keys {
			keys[i] = rng.Int63() - rng.Int63()
		}
	case 1: // heavy duplicates
		for i := range keys {
			keys[i] = int64(rng.Intn(7)) - 3
		}
	case 2: // already sorted
		for i := range keys {
			keys[i] = int64(i / 3)
		}
	case 3: // reverse sorted
		for i := range keys {
			keys[i] = int64(n - i)
		}
	default: // extremes
		choices := []int64{-1 << 63, (1 << 63) - 1, 0, -1, 1}
		for i := range keys {
			keys[i] = choices[rng.Intn(len(choices))]
		}
	}
	return keys
}

// TestVecSortPositionsProperty hammers the radix sort with adversarial key
// distributions.
func TestVecSortPositionsProperty(t *testing.T) {
	f := func(seed int64) bool {
		keys := adversarialKeys(rand.New(rand.NewSource(seed)))
		rows := make([]tpch.Row, len(keys))
		for i, k := range keys {
			rows[i] = tpch.Row{OrderKey: k}
		}
		return reflect.DeepEqual(ScanOrderBy(rows, OrderKey), VecSortPositions(keys))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPairSorterMatchesPositions sorts adversarial chunks of growing and
// shrinking size with one PairSorter, whose buffers every chunk reuses, and
// requires the keys and values that the gather through VecSortPositions
// gives.
func TestPairSorterMatchesPositions(t *testing.T) {
	var ps PairSorter
	f := func(seed int64) bool {
		keys := adversarialKeys(rand.New(rand.NewSource(seed)))
		vals := make([]int64, len(keys))
		for i := range vals {
			vals[i] = seed ^ int64(i)
		}
		wantK := make([]int64, len(keys))
		wantV := make([]int64, len(keys))
		for i, p := range VecSortPositions(keys) {
			wantK[i], wantV[i] = keys[p], vals[p]
		}
		ps.Sort(keys, vals)
		return reflect.DeepEqual(keys, wantK) && reflect.DeepEqual(vals, wantV)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestVecSortKeysPositionsGolden(t *testing.T) {
	for _, keys := range [][]int64{
		{5, -3, 5, 0, 1 << 40, -1 << 63, 5},
		{},
		{7},
		{2, 2, 2}, // all equal: identity permutation, nil-free sorted copy
	} {
		sorted, pos := VecSortKeysPositions(keys)
		wantPos := VecSortPositions(keys)
		if !reflect.DeepEqual(pos, wantPos) {
			t.Fatalf("keys %v: pos %v, want %v", keys, pos, wantPos)
		}
		want := make([]int64, len(keys))
		for i, p := range wantPos {
			want[i] = keys[p]
		}
		if !reflect.DeepEqual(sorted, want) {
			t.Fatalf("keys %v: sorted %v, want %v", keys, sorted, want)
		}
	}
	// Larger generated batch: sorted must equal the gather through pos.
	cols, _ := vecTestColumns(t)
	keys := WidenInt32(nil, cols.CommitDate)
	sorted, pos := VecSortKeysPositions(keys)
	for i, p := range pos {
		if sorted[i] != keys[p] {
			t.Fatalf("sorted[%d] = %d, keys[pos[%d]] = %d", i, sorted[i], i, keys[p])
		}
	}
}

func TestVecSortKeysGolden(t *testing.T) {
	cases := [][]int64{
		{},
		{7},
		{2, 2, 2},
		{5, -3, 5, 0, 1, -128, 2556},        // narrow span: counting path
		{5, -3, 5, 0, 1 << 40, -1 << 63, 5}, // wide span: radix fallback
		{-1 << 63, (1 << 63) - 1, 0, -1, 1}, // span overflows int64: fallback
		{(1 << 63) - 1, (1 << 63) - 2, (1 << 63) - 1}, // narrow span at the top of the domain
	}
	rng := rand.New(rand.NewSource(42))
	narrow := make([]int64, 5000)
	for i := range narrow {
		narrow[i] = int64(rng.Intn(2557)) - 128
	}
	cases = append(cases, narrow)
	for _, keys := range cases {
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := VecSortKeys(append([]int64(nil), keys...))
		if !reflect.DeepEqual(got, want) && len(keys) > 0 {
			t.Fatalf("VecSortKeys(%v...) = %v..., want %v...", keys[:min(4, len(keys))], got[:min(4, len(got))], want[:min(4, len(want))])
		}
	}
	// In-place contract: the returned slice is the input slice for the
	// counting path.
	in := []int64{3, 1, 2}
	out := VecSortKeys(in)
	if &out[0] != &in[0] {
		t.Fatal("counting path did not sort in place")
	}
}

func TestVecGroupGolden(t *testing.T) {
	cols, rows := vecTestColumns(t)
	scalar := ScanGroup(rows, OrderKey)
	vec := VecGroup(cols.OrderKey, cols.Quantity)
	if !reflect.DeepEqual(scalar, vec) {
		t.Fatal("groups differ")
	}
}

func TestVecJoinsGolden(t *testing.T) {
	left := tpch.Generate(0.0002, 3)
	right := tpch.Generate(0.0002, 4)
	lcols := tpch.ColumnsFromRows(left)
	rcols := tpch.ColumnsFromRows(right)

	nested := NestedLoopJoin(left, right, OrderKey, OrderKey)
	hash := VecHashJoin(lcols.OrderKey, VecBuildHash(rcols.OrderKey))
	if !reflect.DeepEqual(nested, hash) {
		t.Fatalf("hash join differs from nested loop: %d vs %d pairs", len(hash), len(nested))
	}

	ltree, err := BuildBTree(left, OrderKey)
	if err != nil {
		t.Fatal(err)
	}
	rtree, err := BuildBTree(right, OrderKey)
	if err != nil {
		t.Fatal(err)
	}
	scalarSM := SortMergeJoin(ltree, rtree)
	vecSM := VecSortMergeJoin(lcols.OrderKey, rcols.OrderKey)
	if !reflect.DeepEqual(scalarSM, vecSM) {
		t.Fatal("vectorized sort-merge join differs from tree-based")
	}
}

// TestVecBuildHashGolden holds the run-based build to the per-row scalar
// build over every key order it branches on: already clustered (identity
// arena), and the orders that must go through the sort.
func TestVecBuildHashGolden(t *testing.T) {
	cols, _ := vecTestColumns(t)
	shuffled := append([]int64(nil), cols.OrderKey...)
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	descending := make([]int64, 3000)
	for i := range descending {
		descending[i] = int64(len(descending)-i) / 3
	}
	for _, c := range []struct {
		name string
		keys []int64
	}{
		{"clustered", cols.OrderKey},
		{"shuffled", shuffled},
		{"key reappears after a gap", []int64{1, 1, 2, 2, 2, 1, 3, 1}},
		{"descending", descending},
		{"all equal", []int64{7, 7, 7, 7, 7}},
		{"single", []int64{42}},
		{"empty", []int64{}},
		{"nil", nil},
		{"extremes clustered", []int64{math.MinInt64, math.MinInt64, -1, 0, math.MaxInt64, math.MaxInt64}},
		{"extremes unclustered", []int64{math.MaxInt64, 0, math.MinInt64, math.MaxInt64, -1, math.MinInt64}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows := make([]tpch.Row, len(c.keys))
			for i, k := range c.keys {
				rows[i].OrderKey = k
			}
			before := append([]int64(nil), c.keys...)
			got := VecBuildHash(c.keys)
			if !slices.Equal(c.keys, before) {
				t.Fatal("VecBuildHash modified its input")
			}
			want := BuildHash(rows, OrderKey)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("hash indexes differ: scalar %d keys, vec %d keys", len(want), len(got))
			}
			// Posting lists share one arena: growing one must not write
			// into the list that follows it.
			for k, list := range got {
				if cap(list) != len(list) {
					t.Fatalf("key %d: posting list cap %d != len %d", k, cap(list), len(list))
				}
				got[k] = append(list, -1)
			}
			for k, list := range got {
				if !slices.Equal(list[:len(list)-1], want[k]) {
					t.Fatalf("key %d: posting list changed when a neighbour grew", k)
				}
			}
		})
	}
}

func TestWidenInt32(t *testing.T) {
	src := []int32{-5, 0, 1 << 30, -1 << 31}
	got := WidenInt32(nil, src)
	want := []int64{-5, 0, 1 << 30, -1 << 31}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WidenInt32 = %v, want %v", got, want)
	}
}

func TestSelectRangeBlockSelectionVector(t *testing.T) {
	block := []int64{5, 1, 9, 5, 7}
	sel := SelectRangeBlock(block, 5, 8, nil)
	if !reflect.DeepEqual(sel, []int32{0, 3, 4}) {
		t.Fatalf("sel = %v", sel)
	}
}

func TestVecEmptyInputs(t *testing.T) {
	if got := VecSelectRange([]int64{}, 0, 10); len(got) != 0 {
		t.Fatal("empty select returned positions")
	}
	if _, ok := VecLookup([]int64{}, 1); ok {
		t.Fatal("empty lookup hit")
	}
	if got := VecSortPositions(nil); len(got) != 0 {
		t.Fatal("empty sort returned positions")
	}
	if got := VecGroup(nil, nil); got != nil {
		t.Fatal("empty group returned groups")
	}
	if got := VecSortMergeJoin(nil, []int64{1}); len(got) != 0 {
		t.Fatal("empty join returned pairs")
	}
}
