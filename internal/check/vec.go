package check

import (
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
// lineitem, now and then longer than a vectorized block — starting below
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
			run = exec.BatchSize + rng.Intn(exec.BatchSize)
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

// reportIfDiff records a violation when the vectorized result differs from
// the scalar golden reference.
func reportIfDiff(r *Report, name string, scalar, vec any) {
	if !reflect.DeepEqual(scalar, vec) {
		r.addf(name, "vectorized result differs from scalar reference (scalar %v, vec %v)",
			summarize(scalar), summarize(vec))
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
// results identical to their scalar references, exec's scalar operators
// over the same key columns, on the given batch: all five §1 operator
// categories — lookup, range select, order by, grouping, and the hash and
// sort-merge joins — plus the hash-build half. The nested-loop reference
// is O(n²) and is compared on a bounded prefix; every other pair runs over
// the full batch. Returns an error listing every category that diverged.
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

	// Range select, int64 and int32 instantiations.
	for _, b := range [][2]int64{{minK, mid}, {mid, maxK}, {minK, maxK}, {mid, mid}, {maxK, maxK}} {
		reportIfDiff(r, "vec-select-range",
			exec.ScanRange(keys, b[0], b[1]),
			exec.VecSelectRange(keys, b[0], b[1]))
	}
	reportIfDiff(r, "vec-select-range-int32",
		exec.ScanRange(cols.CommitDate, 0, 1000),
		exec.VecSelectRange(cols.CommitDate, 0, 1000))

	// Lookup: first row's key, a middle key, and a guaranteed miss.
	for _, k := range []int64{keys[0], keys[n/2], maxK} {
		sp, sok := exec.ScanLookup(keys, k)
		vp, vok := exec.VecLookup(keys, k)
		reportIfDiff(r, "vec-lookup", []any{sp, sok}, []any{vp, vok})
	}
	if maxK < (1<<63)-1 {
		_, sok := exec.ScanLookup(keys, maxK+1)
		_, vok := exec.VecLookup(keys, maxK+1)
		reportIfDiff(r, "vec-lookup-miss", sok, vok)
	}

	// Order by: the radix sort must reproduce the stable comparison sort
	// exactly, on both key columns.
	cdKeys := exec.WidenInt32(nil, cols.CommitDate)
	reportIfDiff(r, "vec-order-by", exec.ScanOrderBy(keys), exec.VecSortPositions(keys))
	reportIfDiff(r, "vec-order-by-commitdate", exec.ScanOrderBy(cdKeys), exec.VecSortPositions(cdKeys))

	// Keys-only sort: both the counting fast path (narrow commitdate
	// domain) and the radix fallback (full-range order keys) must agree
	// with a gather of the keys through the scalar sort's positions.
	// VecSortKeys mutates its input, so it gets a copy.
	for _, c := range []struct {
		name string
		src  []int64
	}{
		{"vec-sort-keys", keys},
		{"vec-sort-keys-commitdate", cdKeys},
	} {
		want := make([]int64, 0, n)
		for _, p := range exec.ScanOrderBy(c.src) {
			want = append(want, c.src[p])
		}
		got := exec.VecSortKeys(append([]int64(nil), c.src...))
		reportIfDiff(r, c.name, want, got)
	}

	reportIfDiff(r, "vec-group", exec.ScanGroup(keys, cols.Quantity), exec.VecGroup(keys, cols.Quantity))
	reportIfDiff(r, "vec-build-hash", exec.BuildHash(keys), exec.VecBuildHash(keys))

	// Joins: split the batch into left/right halves. Nested loop is
	// O(n*m); bound its reference size.
	lKeys, rKeys := keys[:n/2], keys[n/2:]
	blk, brk := lKeys[:min(len(lKeys), nestedLoopCap)], rKeys[:min(len(rKeys), nestedLoopCap)]
	reportIfDiff(r, "vec-hash-join",
		exec.NestedLoopJoin(blk, brk),
		exec.VecHashJoin(blk, exec.VecBuildHash(brk)))
	reportIfDiff(r, "vec-sort-merge-join",
		exec.SortMergeJoin(lKeys, rKeys),
		exec.VecSortMergeJoin(lKeys, rKeys))
}
