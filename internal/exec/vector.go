package exec

import (
	"math/bits"
	"slices"
)

// Vectorized operators: the same five §1 operator categories as the
// row-at-a-time functions in exec.go, rewritten to process column slices
// in blocks of BatchSize values per call. The scalar implementations are
// the golden reference — check.AuditVectorized proves both paths produce
// identical results on seed-reproducible workloads.
//
// The batch contract: operators take struct-of-arrays inputs (tpch.Columns
// slices, or int64 blocks decoded from pagestore column pages), walk them
// BatchSize values at a time, and communicate qualifying lanes through
// selection vectors ([]int32 of block-relative positions) instead of
// materializing intermediate rows.

// BatchSize is the number of values a vectorized operator processes per
// block: large enough to amortize per-block overhead, small enough that a
// block of int64 keys (8 KB) stays in L1.
const BatchSize = 1024

// ColKey is a fixed-width integer column type.
type ColKey interface {
	~int32 | ~int64
}

// WidenInt32 appends src's values to dst as int64 — the glue between
// int32 columns (CommitDate, Quantity) and the int64-keyed operators.
func WidenInt32(dst []int64, src []int32) []int64 {
	for _, v := range src {
		dst = append(dst, int64(v))
	}
	return dst
}

// SelectRangeBlock appends to sel the selection vector of lanes in block
// with lo <= v < hi (block-relative positions, in order). Pass sel[:0] to
// reuse the buffer across blocks.
func SelectRangeBlock[T ColKey](block []T, lo, hi T, sel []int32) []int32 {
	for i, v := range block {
		if v >= lo && v < hi {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// VecSelectRange returns the positions with lo <= key < hi — the
// vectorized "Select range without an index": the column is walked in
// BatchSize blocks, each producing a selection vector that is rebased and
// appended to the result.
func VecSelectRange[T ColKey](keys []T, lo, hi T) []int32 {
	out := make([]int32, 0, len(keys)/16+16)
	var selBuf [BatchSize]int32
	for base := 0; base < len(keys); base += BatchSize {
		end := base + BatchSize
		if end > len(keys) {
			end = len(keys)
		}
		sel := SelectRangeBlock(keys[base:end], lo, hi, selBuf[:0])
		for _, lane := range sel {
			out = append(out, int32(base)+lane)
		}
	}
	return out
}

// VecLookup returns the position of the first value equal to k — the
// vectorized "Lookup without an index" (block scan, early exit).
func VecLookup[T ColKey](keys []T, k T) (int32, bool) {
	for base := 0; base < len(keys); base += BatchSize {
		end := base + BatchSize
		if end > len(keys) {
			end = len(keys)
		}
		for i, v := range keys[base:end] {
			if v == k {
				return int32(base + i), true
			}
		}
	}
	return 0, false
}

// VecBuildHash builds a hash index over a key column without the per-row
// KeyFunc indirection of BuildHash — the batched "build" half of the O(1)
// lookup structure of §1. The build is by runs, not by rows: with the keys
// in sorted order every distinct key is one contiguous run, so the map is
// sized exactly and takes one insert per distinct key, and each posting
// list is a sub-slice of one shared position arena instead of a slice grown
// row by row. A column that is already non-decreasing (a fact table
// clustered by its key) is its own sorted order and its arena is the
// identity; any other column goes through the stable radix sort, which
// keeps positions ascending within a run, as the per-row build leaves them.
// keys is not modified. Posting lists have cap == len, so appending to one
// reallocates it rather than writing into its neighbour.
func VecBuildHash(keys []int64) HashIndex {
	sorted := keys
	var pos []int32
	if slices.IsSorted(keys) {
		pos = make([]int32, len(keys))
		for i := range pos {
			pos[i] = int32(i)
		}
	} else {
		sorted, pos = VecSortKeysPositions(keys)
	}
	runs := 0
	for i, k := range sorted {
		if i == 0 || k != sorted[i-1] {
			runs++
		}
	}
	h := make(HashIndex, runs)
	for s := 0; s < len(sorted); {
		e := s + 1
		for e < len(sorted) && sorted[e] == sorted[s] {
			e++
		}
		h[sorted[s]] = pos[s:e:e]
		s = e
	}
	return h
}

// radixScratch holds the buffers of a stable LSD radix sort that carries a
// payload of type P beside each key: row positions for the sorts below,
// packed RIDs for PairSorter. A sorter that keeps one across sorts
// allocates only when a sort is larger than every sort before it.
type radixScratch[P int32 | int64] struct {
	tmpK   []int64
	tmpP   []P
	counts [8][256]int32
}

// sort stably sorts keys and permutes pay (len(pay) == len(keys))
// alongside: an LSD radix sort over the keys' sign-biased images, O(n) per
// digit, with only bits.Len64(min^max) worth of digits histogrammed and
// single-bucket digits skipped (typical key columns — dense order keys,
// day counts — differ in two or three low bytes, so most of the eight
// passes vanish). Passes alternate between the arguments and the scratch,
// so it returns the sorted keys and payload from whichever holds them
// last; both arguments are overwritten. When the input order is already
// the stable answer (n < 2 or all keys equal) it returns them untouched.
func (s *radixScratch[P]) sort(keys []int64, pay []P) ([]int64, []P) {
	n := len(keys)
	if n < 2 {
		return keys, pay
	}
	min, max := keys[0], keys[0]
	for _, k := range keys[1:] {
		if k < min {
			min = k
		}
		if k > max {
			max = k
		}
	}
	if min == max {
		return keys, pay // all keys equal; input order is the stable answer
	}
	// Digits are bytes of the keys' sign-biased images, which are in
	// uint64 order what the keys are in int64 order. The bias flips only
	// the sign bit, so only digit 7, the top byte, differs from the key's
	// own byte: its histogram halves swap and its buckets are b^0x80.
	digits := (bits.Len64(uint64(min)^uint64(max)) + 7) / 8
	counts := s.counts[:digits]
	clear(counts)
	for _, k := range keys {
		for d := 0; d < digits; d++ {
			counts[d][byte(uint64(k)>>(8*uint(d)))]++
		}
	}
	if digits == 8 {
		top := &counts[7]
		for b := 0; b < 128; b++ {
			top[b], top[b+128] = top[b+128], top[b]
		}
	}

	if cap(s.tmpK) < n {
		s.tmpK = make([]int64, n)
		s.tmpP = make([]P, n)
	}
	srcK, dstK := keys, s.tmpK[:n]
	srcP, dstP := pay, s.tmpP[:n]
	var offs [256]int32
	for d := 0; d < digits; d++ {
		c := &counts[d]
		// A digit where every key falls in one bucket permutes nothing.
		trivial := false
		for b := 0; b < 256; b++ {
			if c[b] == int32(n) {
				trivial = true
				break
			}
			if c[b] != 0 {
				break
			}
		}
		if trivial {
			continue
		}
		var sum int32
		for b := 0; b < 256; b++ {
			offs[b] = sum
			sum += c[b]
		}
		shift, flip := uint(8*d), byte(0)
		if d == 7 {
			flip = 0x80
		}
		for i, k := range srcK {
			b := byte(uint64(k)>>shift) ^ flip
			o := offs[b]
			offs[b] = o + 1
			dstK[o] = k
			dstP[o] = srcP[i]
		}
		srcK, dstK = dstK, srcK
		srcP, dstP = dstP, srcP
	}
	return srcK, srcP
}

// sortPositions radix-sorts a copy of keys with the row positions as the
// payload; keys is not modified.
func sortPositions(keys []int64) ([]int64, []int32) {
	sorted := make([]int64, len(keys))
	copy(sorted, keys)
	pos := make([]int32, len(keys))
	for i := range pos {
		pos[i] = int32(i)
	}
	var s radixScratch[int32]
	return s.sort(sorted, pos)
}

// VecSortPositions returns the row positions stably sorted by key — the
// vectorized "Order by without an index", replacing the comparison sort of
// ScanOrderBy with the radix sort above.
func VecSortPositions(keys []int64) []int32 {
	_, pos := sortPositions(keys)
	return pos
}

// VecSortKeysPositions returns the sorted key sequence alongside the
// stable position permutation. The sorted keys fall out of the radix
// sort's final pass for free, so consumers that need key order (merges,
// grouping, sorted output) read them sequentially instead of gathering
// keys[pos[i]] through n random accesses.
func VecSortKeysPositions(keys []int64) ([]int64, []int32) {
	return sortPositions(keys)
}

// PairSorter sorts (key, value) chunks in place with the radix sort of
// VecSortPositions, the values riding along as its payload, and keeps the
// sort's buffers from one chunk to the next: the run sort of an out-of-core
// index build, whose values are packed RIDs. A PairSorter is not safe for
// concurrent use.
type PairSorter struct {
	s radixScratch[int64]
}

// Sort stably sorts keys ascending in place and permutes vals alongside;
// len(vals) must equal len(keys).
func (ps *PairSorter) Sort(keys, vals []int64) {
	sk, sv := ps.s.sort(keys, vals)
	if len(keys) > 0 && &sk[0] != &keys[0] { // an odd number of passes ran
		copy(keys, sk)
		copy(vals, sv)
	}
}

// countingMaxSpan bounds the key domain for the counting-sort fast path
// of VecSortKeys: a histogram of at most this many buckets (8 MB of
// counters) trades for skipping the radix scatter passes entirely.
const countingMaxSpan = 1 << 20

// VecSortKeys sorts the key column in place and returns it — the
// vectorized "Order by" when only key order is needed (sorted output,
// merge feeding, ordered folds). Narrow-domain columns (dates, day
// counts, enums: max-min < countingMaxSpan) take a counting sort — one
// histogram pass plus one sequential rewrite, no position permutation and
// no per-element scatter, so a 30M-row sort allocates kilobytes instead
// of the radix path's transient gigabyte. Wider domains fall back to the
// radix sort of VecSortKeysPositions.
func VecSortKeys(keys []int64) []int64 {
	if len(keys) < 2 {
		return keys
	}
	min, max := keys[0], keys[0]
	for _, k := range keys[1:] {
		if k < min {
			min = k
		}
		if k > max {
			max = k
		}
	}
	span := uint64(max) - uint64(min) // modular: correct even across the sign boundary
	if span < countingMaxSpan {
		counts := make([]int64, span+1)
		for _, k := range keys {
			counts[uint64(k)-uint64(min)]++
		}
		i := 0
		for b, c := range counts {
			v := min + int64(b)
			for ; c > 0; c-- {
				keys[i] = v
				i++
			}
		}
		return keys
	}
	sorted, _ := VecSortKeysPositions(keys)
	return sorted
}

// VecGroup aggregates a key column with its quantity column — the
// vectorized "Grouping": radix-sorted positions folded over the column
// slices, no per-row closure or struct materialization.
func VecGroup(keys []int64, quantity []int32) []Group {
	if len(keys) == 0 {
		return nil
	}
	// Narrow key domains (dates, enums) skip sorting entirely: aggregate
	// counts and quantity sums into arrays indexed by key offset, then
	// emit groups in key order. One pass, no permutation, no transient
	// sort buffers.
	min, max := keys[0], keys[0]
	for _, k := range keys[1:] {
		if k < min {
			min = k
		}
		if k > max {
			max = k
		}
	}
	if span := uint64(max) - uint64(min); span < countingMaxSpan {
		counts := make([]int64, span+1)
		sums := make([]int64, span+1)
		for i, k := range keys {
			b := uint64(k) - uint64(min)
			counts[b]++
			sums[b] += int64(quantity[i])
		}
		out := make([]Group, 0, 256)
		for b, c := range counts {
			if c > 0 {
				out = append(out, Group{Key: min + int64(b), Count: c, SumQuantity: sums[b]})
			}
		}
		return out
	}
	// Sorted keys are read sequentially; only the quantity column pays a
	// gather through the permutation.
	sorted, order := VecSortKeysPositions(keys)
	out := make([]Group, 0, 256)
	cur := -1
	for i, p := range order {
		k := sorted[i]
		if cur < 0 || out[cur].Key != k {
			out = append(out, Group{Key: k})
			cur = len(out) - 1
		}
		out[cur].Count++
		out[cur].SumQuantity += int64(quantity[p])
	}
	return out
}

// VecHashJoin probes the right-side hash index with the left key column in
// BatchSize blocks — the batched probe half of the hash join. Output
// order matches NestedLoopJoin: left position major, right position minor.
func VecHashJoin(leftKeys []int64, right HashIndex) []JoinPair {
	out := make([]JoinPair, 0, len(leftKeys))
	for base := 0; base < len(leftKeys); base += BatchSize {
		end := base + BatchSize
		if end > len(leftKeys) {
			end = len(leftKeys)
		}
		for i, k := range leftKeys[base:end] {
			for _, rp := range right[k] {
				out = append(out, JoinPair{int32(base + i), rp})
			}
		}
	}
	return out
}

// VecSortMergeJoin joins two key columns by radix-sorting both position
// arrays and merging the sorted runs — the vectorized sort-merge join.
// Output order matches the tree-based SortMergeJoin: key major, then left
// insertion order, then right insertion order.
func VecSortMergeJoin(leftKeys, rightKeys []int64) []JoinPair {
	// The merge walks the sorted key arrays sequentially; the position
	// permutations are only dereferenced to emit matched pairs.
	lk, ls := VecSortKeysPositions(leftKeys)
	rk, rs := VecSortKeysPositions(rightKeys)
	hint := len(ls)
	if len(rs) < hint {
		hint = len(rs)
	}
	out := make([]JoinPair, 0, hint)
	i, j := 0, 0
	for i < len(ls) && j < len(rs) {
		switch {
		case lk[i] < rk[j]:
			i++
		case lk[i] > rk[j]:
			j++
		default:
			k := lk[i]
			jStart := j
			for i < len(ls) && lk[i] == k {
				for j = jStart; j < len(rs) && rk[j] == k; j++ {
					out = append(out, JoinPair{ls[i], rs[j]})
				}
				i++
			}
		}
	}
	return out
}
