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

// vecTestColumns returns a columnar dataset for golden comparisons.
func vecTestColumns(t *testing.T) tpch.Columns {
	t.Helper()
	return tpch.GenerateColumns(0.0008, 19) // ~4800 rows
}

// TestVecSelectRangeGolden holds the range scan to the B+Tree's answer
// over the same keys, on both key widths.
func TestVecSelectRangeGolden(t *testing.T) {
	cols := vecTestColumns(t)
	tree := buildTree(t, cols.OrderKey)
	for _, bounds := range [][2]int64{{100, 300}, {0, 1}, {-5, 5}, {1 << 40, 1 << 41}, {500, 500}} {
		lo, hi := bounds[0], bounds[1]
		want := treeRange(tree, lo, hi)
		if got := VecSelectRange(cols.OrderKey, lo, hi); !reflect.DeepEqual(got, want) {
			t.Fatalf("range [%d,%d): scan %d positions, index %d", lo, hi, len(got), len(want))
		}
	}
	// int32 column via the generic instantiation.
	want := treeRange(buildTree(t, WidenInt32(nil, cols.CommitDate)), 10, 50)
	if got := VecSelectRange(cols.CommitDate, 10, 50); !reflect.DeepEqual(got, want) {
		t.Fatal("commitdate range differs")
	}
}

// TestVecLookupGolden holds the lookup scan to the lowest position the
// B+Tree holds for the key.
func TestVecLookupGolden(t *testing.T) {
	cols := vecTestColumns(t)
	tree := buildTree(t, cols.OrderKey)
	for _, k := range []int64{1, 57, cols.OrderKey[cols.Len()-1], 1 << 50} {
		hits := treeRange(tree, k, k+1)
		p, ok := VecLookup(cols.OrderKey, k)
		if ok != (len(hits) > 0) || ok && p != hits[0] {
			t.Fatalf("lookup %d: scan (%d,%v), index positions %v", k, p, ok, hits)
		}
	}
}

func TestVecSortPositionsGolden(t *testing.T) {
	cols := vecTestColumns(t)
	scalar := ScanOrderBy(cols.OrderKey)
	_, vec := VecSortKeysPositions(cols.OrderKey)
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
		_, pos := VecSortKeysPositions(keys)
		return reflect.DeepEqual(ScanOrderBy(keys), pos)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPairSorterMatchesPositions sorts adversarial chunks of growing and
// shrinking size with one PairSorter, whose buffers every chunk reuses, and
// requires the keys and values that the gather through
// VecSortKeysPositions' positions gives.
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
		_, pos := VecSortKeysPositions(keys)
		for i, p := range pos {
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
		wantPos := ScanOrderBy(keys)
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
	cols := vecTestColumns(t)
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
	cols := vecTestColumns(t)
	scalar := ScanGroup(cols.OrderKey, cols.Quantity)
	vec := VecGroup(cols.OrderKey, cols.Quantity)
	if !reflect.DeepEqual(scalar, vec) {
		t.Fatal("groups differ")
	}
}

func TestVecJoinsGolden(t *testing.T) {
	left := tpch.GenerateColumns(0.0002, 3).OrderKey
	right := tpch.GenerateColumns(0.0002, 4).OrderKey

	nested := NestedLoopJoin(left, right)
	hash := VecHashJoin(left, VecBuildHash(right))
	if !reflect.DeepEqual(nested, hash) {
		t.Fatalf("hash join differs from nested loop: %d vs %d pairs", len(hash), len(nested))
	}

	scalarSM := SortMergeJoin(left, right)
	vecSM := VecSortMergeJoin(left, right)
	if !reflect.DeepEqual(scalarSM, vecSM) {
		t.Fatal("vectorized sort-merge join differs from the scalar one")
	}
}

// requireHashEqualsMap fails t unless h holds exactly the scalar map: the
// same number of keys, one entry each in strictly ascending key order,
// every posting list equal to the map's with cap == len, and found again
// by Lookup.
func requireHashEqualsMap(t *testing.T, h HashIndex, want map[int64][]int32) {
	t.Helper()
	if len(h) != len(want) {
		t.Fatalf("hash index holds %d keys, scalar map %d", len(h), len(want))
	}
	for i, e := range h {
		if i > 0 && e.Key <= h[i-1].Key {
			t.Fatalf("entry %d: key %d not above the previous key %d", i, e.Key, h[i-1].Key)
		}
		if !slices.Equal(e.Pos, want[e.Key]) || len(e.Pos) == 0 {
			t.Fatalf("key %d: posting list %v, scalar map %v", e.Key, e.Pos, want[e.Key])
		}
		if cap(e.Pos) != len(e.Pos) {
			t.Fatalf("key %d: posting list cap %d != len %d", e.Key, cap(e.Pos), len(e.Pos))
		}
		if got := h.Lookup(e.Key); !slices.Equal(got, e.Pos) {
			t.Fatalf("Lookup(%d) = %v, entry holds %v", e.Key, got, e.Pos)
		}
	}
}

// TestVecBuildHashGolden holds the run-based build to the per-row scalar
// build over every key order it branches on: already clustered (identity
// arena), and the orders that must go through the sort.
func TestVecBuildHashGolden(t *testing.T) {
	cols := vecTestColumns(t)
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
			before := append([]int64(nil), c.keys...)
			got := VecBuildHash(c.keys)
			if !slices.Equal(c.keys, before) {
				t.Fatal("VecBuildHash modified its input")
			}
			want := BuildHash(c.keys)
			requireHashEqualsMap(t, got, want)
			// Posting lists share one arena: growing one must not write
			// into the list that follows it.
			for i := range got {
				got[i].Pos = append(got[i].Pos, -1)
			}
			for _, e := range got {
				if !slices.Equal(e.Pos[:len(e.Pos)-1], want[e.Key]) {
					t.Fatalf("key %d: posting list changed when a neighbour grew", e.Key)
				}
			}
		})
	}
}

// TestVecBuildHashAllocations pins the clustered build, dp_query's case, to
// its two allocations: the identity position arena and the entry slice.
// The Go map it replaced took 515 for these keys.
func TestVecBuildHashAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]int64, 0, 600_000)
	for k := int64(1); len(keys) < cap(keys); k += 1 + int64(rng.Intn(3)) {
		for run := 1 + rng.Intn(7); run > 0 && len(keys) < cap(keys); run-- {
			keys = append(keys, k)
		}
	}
	if allocs := testing.AllocsPerRun(3, func() { benchHash = VecBuildHash(keys) }); allocs > 2 {
		t.Fatalf("VecBuildHash of %d clustered keys: %.0f allocations, want at most 2", len(keys), allocs)
	}
}

// maxChainLen is the longest bucket chain TestHashIndexChains accepts. With
// one bucket per key, random keys under a uniform hash leave chains of
// Poisson(1) lengths, whose longest over ~8k buckets is about 7; the
// Fibonacci hash spreads the test's evenly strided keys better than that
// (3 at most when written).
const maxChainLen = 8

// TestHashIndexChains builds over keys that differ only in high bits,
// strided by 2^20 and by 2^32 (a hash of the low bits would chain them all
// in one bucket), with the int64 extremes, -1 and 0 mixed in or left out.
// Every key must sit in the chain of its own bucket and be found, 0 must
// miss when absent, and no chain may be longer than maxChainLen.
func TestHashIndexChains(t *testing.T) {
	for _, stride := range []int64{1 << 20, 1 << 32} {
		for _, withZero := range []bool{false, true} {
			keys := []int64{math.MinInt64, math.MaxInt64, -1}
			for i := int64(-4096); i <= 4096; i++ {
				if i != 0 || withZero {
					keys = append(keys, i*stride)
				}
			}
			h := VecBuildHash(keys)
			requireHashEqualsMap(t, h, BuildHash(keys))
			chained, longest := 0, 0
			for b := range h {
				n := 0
				for j := h[b].head; j != 0; j = h[j-1].next {
					if got := h.bucket(h[j-1].Key); got != b {
						t.Fatalf("stride %d: key %d chained in bucket %d, hashes to %d", stride, h[j-1].Key, b, got)
					}
					n++
				}
				chained += n
				longest = max(longest, n)
			}
			if chained != len(h) {
				t.Fatalf("stride %d: %d of %d entries chained", stride, chained, len(h))
			}
			if longest > maxChainLen {
				t.Fatalf("stride %d: longest chain %d, want at most %d", stride, longest, maxChainLen)
			}
			if got := h.Lookup(0); !withZero && got != nil {
				t.Fatalf("stride %d: Lookup(0) = %v with 0 absent", stride, got)
			}
			if got := h.Lookup(stride / 2); got != nil {
				t.Fatalf("stride %d: Lookup(%d) = %v, key absent", stride, stride/2, got)
			}
			t.Logf("stride %d, 0 present %v: %d keys, longest chain %d", stride, withZero, len(h), longest)
		}
	}
	if got := HashIndex(nil).Lookup(0); got != nil {
		t.Fatalf("nil index: Lookup(0) = %v", got)
	}
}

// FuzzHashIndexMatchesMap holds VecBuildHash to the per-row map and
// VecHashJoin to the nested loop on key columns decoded from fuzz bytes.
// The first byte picks a stride; every other byte is one key, a multiple
// of the stride in [-32, 32) or, for 0xfe and 0xff, an int64 extreme, so
// duplicates and shared buckets are the common case. The first half of the
// keys probes an index built over the second half.
func FuzzHashIndexMatchesMap(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 2, 1, 3, 1})
	f.Add([]byte{1, 0xff, 0, 0xfe, 0xff, 31, 0xfe, 0, 5})
	f.Add([]byte{2, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 63, 62})
	f.Add([]byte{3, 40, 40, 40, 40, 40, 40, 40, 40, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 4097 {
			return
		}
		stride := []int64{1, 1 << 20, 1 << 32, 1 << 57}[data[0]%4]
		keys := make([]int64, 0, len(data)-1)
		for _, b := range data[1:] {
			switch b {
			case 0xff:
				keys = append(keys, math.MaxInt64)
			case 0xfe:
				keys = append(keys, math.MinInt64)
			default:
				keys = append(keys, (int64(b%64)-32)*stride)
			}
		}
		left, right := keys[:len(keys)/2], keys[len(keys)/2:]
		for _, side := range [][]int64{left, right} {
			h := VecBuildHash(side)
			requireHashEqualsMap(t, h, BuildHash(side))
			if got := h.Lookup(32 * stride); got != nil {
				t.Fatalf("Lookup(%d) = %v, key absent", 32*stride, got)
			}
		}
		if want, got := NestedLoopJoin(left, right), VecHashJoin(left, VecBuildHash(right)); !reflect.DeepEqual(want, got) {
			t.Fatalf("hash join differs from nested loop: %d vs %d pairs", len(got), len(want))
		}
	})
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
	if _, got := VecSortKeysPositions(nil); len(got) != 0 {
		t.Fatal("empty sort returned positions")
	}
	if got := VecGroup(nil, nil); got != nil {
		t.Fatal("empty group returned groups")
	}
	if got := VecSortMergeJoin(nil, []int64{1}); len(got) != 0 {
		t.Fatal("empty join returned pairs")
	}
}
