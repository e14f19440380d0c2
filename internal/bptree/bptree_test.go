package bptree

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// sortByKey stable-sorts parallel key/value slices by key, the order
// BulkLoadSorted takes: equal keys keep their arrival order.
func sortByKey(keys, vals []int64) {
	type kv struct{ k, v int64 }
	s := make([]kv, len(keys))
	for i := range s {
		s[i] = kv{keys[i], vals[i]}
	}
	slices.SortStableFunc(s, func(a, b kv) int { return cmp.Compare(a.k, b.k) })
	for i, e := range s {
		keys[i], vals[i] = e.k, e.v
	}
}

// load builds a tree of the given order from entries in arrival order the
// way the data plane does: a stable sort by key, then BulkLoadSorted.
// Equal keys keep their arrival order. The caller's slices are left as
// they were.
func load(tb testing.TB, order int, keys, vals []int64) *Tree {
	tb.Helper()
	keys, vals = slices.Clone(keys), slices.Clone(vals)
	sortByKey(keys, vals)
	tr, err := BulkLoadSorted(order, keys, vals)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestEmptyTree(t *testing.T) {
	tr := load(t, 8, nil, nil)
	if tr.Len() != 0 {
		t.Errorf("Len = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get(5); ok {
		t.Error("Get on empty tree found a value")
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	calls := 0
	tr.Range(0, 100, func(int64, int64) bool { calls++; return true })
	if calls != 0 {
		t.Errorf("Range on empty tree visited %d", calls)
	}
}

func TestInsertGet(t *testing.T) {
	var keys, vals []int64
	for i := int64(0); i < 100; i++ {
		keys, vals = append(keys, i*2), append(vals, i)
	}
	tr := load(t, 4, keys, vals)
	if tr.Len() != 100 {
		t.Errorf("Len = %d, want 100", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for i := int64(0); i < 100; i++ {
		v, ok := tr.Get(i * 2)
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v, want %d,true", i*2, v, ok, i)
		}
		if _, ok := tr.Get(i*2 + 1); ok {
			t.Fatalf("Get(%d) found a value for a missing key", i*2+1)
		}
	}
	if tr.Height() < 3 {
		t.Errorf("Height = %d for 100 keys order 4, want >= 3", tr.Height())
	}
}

func TestInsertReverseAndRandomOrder(t *testing.T) {
	for name, keys := range map[string][]int64{
		"reverse": {9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		"random":  {5, 2, 8, 1, 9, 3, 7, 0, 6, 4},
	} {
		vals := make([]int64, len(keys))
		for i, k := range keys {
			vals[i] = k * 10
		}
		tr := load(t, 4, keys, vals)
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
		}
		for _, k := range keys {
			if v, ok := tr.Get(k); !ok || v != k*10 {
				t.Errorf("%s: Get(%d) = %d,%v", name, k, v, ok)
			}
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	// Enough duplicates that leaf boundaries fall next to runs.
	var keys, vals []int64
	for i := int64(0); i < 20; i++ {
		keys, vals = append(keys, i%5), append(vals, i)
	}
	tr := load(t, 4, keys, vals)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for k := int64(0); k < 5; k++ {
		if n := keyCount(tr, k); n != 4 {
			t.Errorf("key %d has %d entries, want 4", k, n)
		}
	}
	if n := keyCount(tr, 99); n != 0 {
		t.Errorf("key 99 has %d entries, want none", n)
	}
}

func TestAllKeysEqualOversizedLeaf(t *testing.T) {
	var keys, vals []int64
	for i := int64(0); i < 50; i++ {
		keys, vals = append(keys, 7), append(vals, i)
	}
	tr := load(t, 4, keys, vals)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := keyCount(tr, 7); got != 50 {
		t.Errorf("key 7 has %d entries, want 50", got)
	}
}

func TestRange(t *testing.T) {
	var keys []int64
	for i := int64(0); i < 100; i++ {
		keys = append(keys, i)
	}
	tr := load(t, 8, keys, keys)
	var got []int64
	tr.Range(10, 20, func(k, v int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Errorf("Range(10,20) = %v", got)
	}
	// Early stop.
	count := 0
	tr.Range(0, 100, func(k, v int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early-stop Range visited %d, want 5", count)
	}
	// Empty interval.
	tr.Range(20, 10, func(k, v int64) bool {
		t.Error("Range(20,10) visited an entry")
		return false
	})
}

func TestScanIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var keys, vals []int64
	for i := 0; i < 500; i++ {
		keys, vals = append(keys, rng.Int63n(200)), append(vals, int64(i))
	}
	tr := load(t, 6, keys, vals)
	var prev int64 = -1
	n := 0
	tr.Scan(func(k, v int64) bool {
		if k < prev {
			t.Fatalf("Scan out of order: %d after %d", k, prev)
		}
		prev = k
		n++
		return true
	})
	if n != 500 {
		t.Errorf("Scan visited %d, want 500", n)
	}
}

func TestBulkLoad(t *testing.T) {
	keys, vals := make([]int64, 1000), make([]int64, 1000)
	for i := range keys {
		keys[i], vals[i] = int64(i/3), int64(i) // duplicates
	}
	tr, err := BulkLoadSorted(16, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1000 {
		t.Errorf("Len = %d, want 1000", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for k := int64(0); k < 333; k++ {
		if got := keyCount(tr, k); got != 3 {
			t.Errorf("key %d has %d entries, want 3", k, got)
		}
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	if _, err := BulkLoadSorted(8, []int64{2, 1}, []int64{0, 0}); err == nil {
		t.Error("unsorted BulkLoadSorted accepted")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr, err := BulkLoadSorted(8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d, want 0", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestApproxSizeBytes(t *testing.T) {
	var keys []int64
	for i := int64(0); i < 100; i++ {
		keys = append(keys, i)
	}
	tr := load(t, 8, keys, keys)
	sz := tr.ApproxSizeBytes()
	if sz < 100*16 {
		t.Errorf("ApproxSizeBytes = %d, want >= %d", sz, 100*16)
	}
}

// TestAgainstReferenceProperty compares tree behaviour with a sorted-slice
// reference model under random workloads.
func TestAgainstReferenceProperty(t *testing.T) {
	type pair struct{ Key, Val int64 }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 4 + rng.Intn(12)
		var keys, vals []int64
		var ref []pair
		for i := 0; i < 400; i++ {
			k := rng.Int63n(100)
			v := int64(i)
			keys, vals = append(keys, k), append(vals, v)
			ref = append(ref, pair{k, v})
		}
		tr := load(t, order, keys, vals)
		if err := tr.Validate(); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].Key < ref[j].Key })

		// Range equivalence on random intervals.
		for trial := 0; trial < 20; trial++ {
			lo, hi := rng.Int63n(110), rng.Int63n(110)
			if lo > hi {
				lo, hi = hi, lo
			}
			var want []int64
			for _, p := range ref {
				if p.Key >= lo && p.Key < hi {
					want = append(want, p.Key)
				}
			}
			var got []int64
			tr.Range(lo, hi, func(k, v int64) bool {
				got = append(got, k)
				return true
			})
			if len(got) != len(want) {
				t.Logf("Range(%d,%d): got %d keys, want %d", lo, hi, len(got), len(want))
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}

		// Per-key entry counts on every key value.
		counts := make(map[int64]int)
		for _, p := range ref {
			counts[p.Key]++
		}
		for k := int64(0); k < 100; k++ {
			if keyCount(tr, k) != counts[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// FuzzTreeAgainstMap loads the tree from fuzzer-chosen entries and
// cross-checks it against a map-of-counts reference model.
func FuzzTreeAgainstMap(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var keys, vals []int64
		ref := make(map[int64]int)
		for i := 0; i+1 < len(ops); i += 2 {
			k := int64(ops[i] % 32)
			keys, vals = append(keys, k), append(vals, int64(ops[i+1]))
			ref[k]++
		}
		tr := load(t, 4, keys, vals)
		if err := tr.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		for k := int64(0); k < 32; k++ {
			if got := keyCount(tr, k); got != ref[k] {
				t.Fatalf("key %d has %d entries, want %d", k, got, ref[k])
			}
		}
		total := 0
		tr.Scan(func(int64, int64) bool { total++; return true })
		if total != tr.Len() {
			t.Fatalf("Scan visited %d, Len %d", total, tr.Len())
		}
	})
}

// TestBulkLoadSortedMatchesBulkLoad: a bulk load holds exactly its input.
// The scan returns the entries in input order, equal keys included, and
// the tree does not alias the caller's slices.
func TestBulkLoadSortedMatchesBulkLoad(t *testing.T) {
	const n = 1000
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(i / 3) // duplicates
		vals[i] = int64(i)
	}
	got, err := BulkLoadSorted(16, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var gk, gv []int64
	got.Scan(func(k, v int64) bool { gk, gv = append(gk, k), append(gv, v); return true })
	if !slices.Equal(gk, keys) || !slices.Equal(gv, vals) {
		t.Fatal("scan differs from the loaded entries")
	}
	// The loaded tree must not alias the caller's slices.
	keys[0], vals[0] = 999, 999
	if v, ok := got.Get(0); !ok || v != 0 {
		t.Errorf("Get(0) after caller mutation = %d, %v; want 0, true", v, ok)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("Validate after caller mutation: %v", err)
	}
}

func TestBulkLoadSortedErrors(t *testing.T) {
	if _, err := BulkLoadSorted(8, []int64{2, 1}, []int64{0, 0}); err == nil {
		t.Error("unsorted input accepted")
	}
	if _, err := BulkLoadSorted(8, []int64{1}, []int64{0, 0}); err == nil {
		t.Error("length mismatch accepted")
	}
	tr, err := BulkLoadSorted(8, nil, nil)
	if err != nil || tr.Len() != 0 {
		t.Errorf("empty load: %v len=%d", err, tr.Len())
	}
}

// keyCount is the number of entries holding key k.
func keyCount(tr *Tree, k int64) int {
	n := 0
	tr.Range(k, k+1, func(int64, int64) bool { n++; return true })
	return n
}
