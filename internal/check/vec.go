package check

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"

	"idxflow/internal/exec"
	"idxflow/internal/tpch"
)

// GenColumns draws an adversarial columnar lineitem batch for the
// vectorized-vs-scalar equivalence audit: unlike the TPC-H generator,
// whose order keys come out dense and already sorted, the key columns here
// mix distributions the radix sort and the selection kernels must not get
// wrong — negatives, full-range extremes, heavy duplicates, sorted and
// reverse-sorted runs. Deterministic in (seed, n).
func GenColumns(seed int64, n int) tpch.Columns {
	rng := rand.New(rand.NewSource(seed))
	c := tpch.Columns{}
	c.Grow(n)
	for i := 0; i < n; i++ {
		var key int64
		switch rng.Intn(6) {
		case 0: // random full-range, negatives included
			key = rng.Int63() - rng.Int63()
		case 1: // heavy duplicates around zero
			key = int64(rng.Intn(9)) - 4
		case 2: // ascending run
			key = int64(i)
		case 3: // descending run
			key = int64(n - i)
		case 4: // extremes
			choices := [...]int64{-1 << 63, (1 << 63) - 1, 0, -1, 1}
			key = choices[rng.Intn(len(choices))]
		default: // narrow positive band, the TPC-H-like case
			key = int64(rng.Intn(n/8 + 1))
		}
		c.Append(genRow(rng, key))
	}
	return c
}

// genRow draws the non-key columns of one audit row.
func genRow(rng *rand.Rand, key int64) tpch.Row {
	return tpch.Row{
		OrderKey:   key,
		CommitDate: int32(rng.Intn(2557)) - 128, // some negative dates too
		Quantity:   int32(rng.Intn(50)) + 1,
	}
}

// GenClusteredColumns draws a batch whose order keys are non-decreasing
// runs, the shape of a fact table clustered by its key. GenColumns picks a
// generator per row, so two neighbouring rows almost never share a key;
// here every key repeats for a drawn run length — mostly the 1-7 of
// lineitem, now and then 1,024 to 2,047 rows — starting below
// zero so runs cross the sign boundary. The other columns stay random, so
// the group and join audits see non-trivial payloads. Deterministic in
// (seed, n).
func GenClusteredColumns(seed int64, n int) tpch.Columns {
	rng := rand.New(rand.NewSource(seed))
	c := tpch.Columns{}
	c.Grow(n)
	key := -int64(n) / 8
	for c.Len() < n {
		run := 1 + rng.Intn(7)
		if rng.Intn(64) == 0 {
			run = 1024 + rng.Intn(1024)
		}
		for ; run > 0 && c.Len() < n; run-- {
			c.Append(genRow(rng, key))
		}
		key += 1 + int64(rng.Intn(3))
	}
	return c
}

// nestedLoopCap bounds the O(n*m) scalar nested-loop reference inside the
// audit; the vectorized hash join is compared against it on a prefix.
const nestedLoopCap = 512

// sortMergeCap bounds the pairs the sort-merge joins may emit over the full
// halves of a batch: a duplicate-heavy batch makes their output quadratic
// (4,096 equal keys give 4.2M pairs a join), so above the cap both are
// compared on the nested loop's prefixes instead. The hash build of one
// half counts the pairs.
const sortMergeCap = 1 << 20

// atLeast returns the index in order, a stable sort of keys, of the first
// key not below k; binary search finds the first of a run of equal keys.
func atLeast(keys []int64, order []int32, k int64) int {
	i, _ := slices.BinarySearchFunc(order, k, func(p int32, k int64) int { return cmp.Compare(keys[p], k) })
	return i
}

// sortedRange reads a range select off a stable sort's order of keys: the
// positions of the keys in [lo, hi), returned ascending, as a scan returns
// them.
func sortedRange(keys []int64, order []int32, lo, hi int64) []int32 {
	i, j := atLeast(keys, order, lo), atLeast(keys, order, hi)
	out := append([]int32{}, order[i:max(i, j)]...)
	slices.Sort(out)
	return out
}

// reportIfDiff records a violation when the vectorized result differs from
// the scalar golden reference.
func reportIfDiff(r *Report, name string, scalar, vec any) {
	if !reflect.DeepEqual(scalar, vec) {
		r.addf(name, "vectorized result differs from scalar reference (scalar %v, vec %v)",
			summarize(scalar), summarize(vec))
	}
}

// reportHashDiff records a violation when the hash index built by runs
// does not hold exactly the scalar build's map: the same keys, one entry
// each in strictly ascending order, every posting list equal to the map's
// with cap == len and found again by Lookup, and a miss on the key just
// above the largest.
func reportHashDiff(r *Report, name string, scalar map[int64][]int32, vec exec.HashIndex) {
	if len(vec) != len(scalar) {
		r.addf(name, "hash index holds %d keys, scalar reference %d", len(vec), len(scalar))
		return
	}
	for i, e := range vec {
		switch want, ok := scalar[e.Key]; {
		case i > 0 && e.Key <= vec[i-1].Key:
			r.addf(name, "entry %d: key %d not above the previous key %d", i, e.Key, vec[i-1].Key)
		case !ok:
			r.addf(name, "entry %d: key %d not in the scalar reference", i, e.Key)
		case !slices.Equal(e.Pos, want) || cap(e.Pos) != len(e.Pos):
			r.addf(name, "key %d: posting list %v (cap %d), scalar reference %v",
				e.Key, summarize(e.Pos), cap(e.Pos), summarize(want))
		case !slices.Equal(vec.Lookup(e.Key), want):
			r.addf(name, "key %d: Lookup returns %v, scalar reference %v",
				e.Key, summarize(vec.Lookup(e.Key)), summarize(want))
		default:
			continue
		}
		return
	}
	if n := len(vec); n > 0 && vec[n-1].Key < math.MaxInt64 && vec.Lookup(vec[n-1].Key+1) != nil {
		r.addf(name, "Lookup(%d) finds a key above the largest", vec[n-1].Key+1)
	}
}

// summarize keeps violation details readable when the compared values are
// large slices.
func summarize(v any) any {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Slice && rv.Len() > 8 {
		return rv.Slice(0, 8).Interface()
	}
	return v
}

// AuditVectorized proves the vectorized operators in internal/exec produce
// results identical to their scalar references on the given batch: all
// five §1 operator categories — lookup, range select, order by, grouping,
// and the hash and sort-merge joins — plus the hash-build half. Order by,
// grouping, the hash build and the joins are held to exec's scalar
// operators over the same key columns; range select and lookup, which
// have one implementation, to the answer read off the stable comparison
// sort by binary search. The nested-loop reference is O(n²) and is
// compared on a bounded prefix, and so are the sort-merge joins when the
// full halves would emit more than sortMergeCap pairs; every other pair
// runs over the full batch. Returns an error listing every category that
// diverged.
func AuditVectorized(cols tpch.Columns) error {
	r := &Report{}
	auditVectorized(r, cols)
	return r.Err()
}

func auditVectorized(r *Report, cols tpch.Columns) {
	n := cols.Len()
	if n == 0 {
		return
	}
	keys := cols.OrderKey

	// Derive probe keys and range bounds from the data so every generated
	// batch exercises hits, misses and boundary keys.
	minK, maxK := slices.Min(keys), slices.Max(keys)
	mid := minK/2 + maxK/2

	// The stable comparison sort of both key columns: the order-by
	// reference, and the order range select and lookup are read off.
	order := exec.ScanOrderBy(keys)
	cdKeys := exec.WidenInt32(nil, cols.CommitDate)
	cdOrder := exec.ScanOrderBy(cdKeys)

	// Range select, int64 and int32 instantiations.
	for _, b := range [][2]int64{{minK, mid}, {mid, maxK}, {minK, maxK}, {mid, mid}, {maxK, maxK}} {
		reportIfDiff(r, "vec-select-range",
			sortedRange(keys, order, b[0], b[1]),
			exec.VecSelectRange(keys, b[0], b[1]))
	}
	reportIfDiff(r, "vec-select-range-int32",
		sortedRange(cdKeys, cdOrder, 0, 1000),
		exec.VecSelectRange(cols.CommitDate, 0, 1000))

	// Lookup: first row's key, a middle key, the largest key, and a
	// guaranteed miss. The stable sort puts the lowest position holding
	// a key first among its equals.
	for _, k := range []int64{keys[0], keys[n/2], maxK} {
		i := atLeast(keys, order, k)
		vp, vok := exec.VecLookup(keys, k)
		reportIfDiff(r, "vec-lookup", []any{order[i], true}, []any{vp, vok})
	}
	if maxK < (1<<63)-1 {
		_, vok := exec.VecLookup(keys, maxK+1)
		reportIfDiff(r, "vec-lookup-miss", false, vok)
	}

	// Order by: the radix sort must reproduce the stable comparison sort
	// exactly, on both key columns.
	_, pos := exec.VecSortKeysPositions(keys)
	reportIfDiff(r, "vec-order-by", order, pos)
	_, pos = exec.VecSortKeysPositions(cdKeys)
	reportIfDiff(r, "vec-order-by-commitdate", cdOrder, pos)

	// Keys-only sort: both the counting fast path (narrow commitdate
	// domain) and the radix fallback (full-range order keys) must agree
	// with a gather of the keys through the scalar sort's positions.
	// VecSortKeys mutates its input, so it gets a copy.
	for _, c := range []struct {
		name  string
		src   []int64
		order []int32
	}{
		{"vec-sort-keys", keys, order},
		{"vec-sort-keys-commitdate", cdKeys, cdOrder},
	} {
		want := make([]int64, 0, n)
		for _, p := range c.order {
			want = append(want, c.src[p])
		}
		got := exec.VecSortKeys(append([]int64(nil), c.src...))
		reportIfDiff(r, c.name, want, got)
	}

	reportIfDiff(r, "vec-group", exec.ScanGroup(keys, cols.Quantity), exec.VecGroup(keys, cols.Quantity))
	reportHashDiff(r, "vec-build-hash", exec.BuildHash(keys), exec.VecBuildHash(keys))

	// Joins: split the batch into left/right halves. Nested loop is
	// O(n*m); bound its reference size, and the sort-merge joins' output.
	lKeys, rKeys := keys[:n/2], keys[n/2:]
	blk, brk := lKeys[:min(len(lKeys), nestedLoopCap)], rKeys[:min(len(rKeys), nestedLoopCap)]
	reportIfDiff(r, "vec-hash-join",
		exec.NestedLoopJoin(blk, brk),
		exec.VecHashJoin(blk, exec.VecBuildHash(brk)))
	lh, pairs := exec.VecBuildHash(lKeys), 0
	for _, k := range rKeys {
		pairs += len(lh.Lookup(k))
	}
	if pairs > sortMergeCap {
		lKeys, rKeys = blk, brk
	}
	reportIfDiff(r, "vec-sort-merge-join",
		exec.SortMergeJoin(lKeys, rKeys),
		exec.VecSortMergeJoin(lKeys, rKeys))
}
