package exec

import (
	"math/bits"
	"slices"
)

// Vectorized operators: the §1 operator categories over struct-of-arrays
// key columns (tpch.Columns slices, or int64 blocks decoded from
// pagestore column pages). Range select and lookup have one
// implementation each, a scan: SelectRangeBlock is the kernel, over a
// whole column (VecSelectRange) or one page block at a time (Table 6), and
// qualifying lanes come back as a selection vector ([]int32 of positions in
// the block) instead of materialized rows. The other categories have a
// second algorithm here beside the scalar one of exec.go — radix instead
// of comparison sort, counting instead of sort-based grouping, a build by
// runs instead of per-row inserts, radix instead of comparison sort-merge
// join — and check.AuditVectorized proves each pair returns the same
// result.

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

// VecSelectRange returns the positions with lo <= key < hi ("Select range"
// without an index, O(n)): SelectRangeBlock over the whole column. The
// result is presized for a few percent selectivity so typical ranges
// append without reallocating.
func VecSelectRange[T ColKey](keys []T, lo, hi T) []int32 {
	return SelectRangeBlock(keys, lo, hi, make([]int32, 0, len(keys)/16+16))
}

// VecLookup returns the position of the first value equal to k ("Lookup"
// without an index, O(n), early exit).
func VecLookup[T ColKey](keys []T, k T) (int32, bool) {
	for i, v := range keys {
		if v == k {
			return int32(i), true
		}
	}
	return 0, false
}

// minMax returns the smallest and the largest of keys; keys is not empty.
func minMax(keys []int64) (lo, hi int64) {
	lo, hi = keys[0], keys[0]
	for _, k := range keys[1:] {
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	return lo, hi
}

// HashIndex is the O(1) key-to-positions lookup structure of §1: one entry
// per distinct key, in ascending key order, and no Go map. It is a slice
// so that len counts the distinct keys. The entries are also the buckets:
// a key hashes to bucket b in [0, len(h)), entry b holds the head of that
// bucket's chain, and each entry links to the next one in its chain. Build
// one with VecBuildHash; a nil HashIndex holds no key.
type HashIndex []HashEntry

// HashEntry is one distinct key and the ascending positions of the rows
// holding it. Pos is a sub-slice of the build's one position arena with
// cap == len, so appending to it reallocates rather than writing into the
// next key's list. head (the chain of the bucket this entry stands for)
// and next (the entry after this one in its own chain) are 1-based entry
// indexes, 0 ending the chain.
type HashEntry struct {
	Key        int64
	Pos        []int32
	head, next int32
}

// bucket maps k to [0, len(h)): a Fibonacci hash, whose high bits mix
// every bit of k, narrowed by a multiply-high instead of a modulo.
func (h HashIndex) bucket(k int64) int {
	b, _ := bits.Mul64(uint64(k)*0x9E3779B97F4A7C15, uint64(len(h)))
	return int(b)
}

// Lookup returns the positions of rows with the given key, nil if none.
func (h HashIndex) Lookup(k int64) []int32 {
	if len(h) == 0 {
		return nil
	}
	for j := h[h.bucket(k)].head; j != 0; {
		e := &h[j-1]
		if e.Key == k {
			return e.Pos
		}
		j = e.next
	}
	return nil
}

// VecBuildHash builds the hash index of the key column — the batched
// "build" half of the O(1) lookup structure of §1, holding what the
// per-row BuildHash map holds. The build is by runs, not by rows: with the
// keys in sorted order every distinct key is one contiguous run, so the
// index is sized exactly, each run becomes one entry, and each posting
// list is a sub-slice of one shared position arena instead of a slice
// grown row by row. A column that is already non-decreasing (a fact table
// clustered by its key) is its own sorted order and its arena is the
// identity, so the build makes two allocations; any other column goes
// through the stable radix sort, which keeps positions ascending within a
// run, as the per-row build leaves them. keys is not modified.
func VecBuildHash(keys []int64) HashIndex {
	sorted, pos := keys, []int32(nil)
	if slices.IsSorted(keys) {
		pos = identity(len(keys))
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
	for s, i := 0, 0; s < len(sorted); i++ {
		e := s + 1
		for e < len(sorted) && sorted[e] == sorted[s] {
			e++
		}
		en := &h[i]
		en.Key, en.Pos = sorted[s], pos[s:e:e]
		b := &h[h.bucket(en.Key)]
		en.next, b.head = b.head, int32(i+1)
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
	min, max := minMax(keys)
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

// VecSortKeysPositions returns the row positions stably sorted by key —
// the vectorized "Order by without an index", replacing the comparison
// sort of ScanOrderBy with the radix sort above — and the sorted key
// sequence beside them. The sorted keys fall out of the radix sort's final
// pass for free, so consumers that need key order (merges, grouping,
// sorted output) read them sequentially instead of gathering keys[pos[i]]
// through n random accesses. keys is not modified.
func VecSortKeysPositions(keys []int64) ([]int64, []int32) {
	sorted := make([]int64, len(keys))
	copy(sorted, keys)
	var s radixScratch[int32]
	return s.sort(sorted, identity(len(keys)))
}

// PairSorter sorts (key, value) chunks in place with the radix sort of
// VecSortKeysPositions, the values riding along as its payload, and keeps the
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
	min, max := minMax(keys)
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
	min, max := minMax(keys)
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

// VecHashJoin probes the right-side hash index with the left key column,
// one Lookup per left row — the probe half of the hash join. Output order matches NestedLoopJoin:
// left position major, right position minor.
func VecHashJoin(leftKeys []int64, right HashIndex) []JoinPair {
	out := make([]JoinPair, 0, len(leftKeys))
	for i, k := range leftKeys {
		for _, rp := range right.Lookup(k) {
			out = append(out, JoinPair{int32(i), rp})
		}
	}
	return out
}

// VecSortMergeJoin joins two key columns by radix-sorting both position
// arrays and merging the sorted runs — the vectorized sort-merge join.
// Output order matches SortMergeJoin: key major, then left position, then
// right position.
func VecSortMergeJoin(leftKeys, rightKeys []int64) []JoinPair {
	// The merge walks the sorted key arrays sequentially; the position
	// permutations are only dereferenced to emit matched pairs.
	lk, ls := VecSortKeysPositions(leftKeys)
	rk, rs := VecSortKeysPositions(rightKeys)
	out := make([]JoinPair, 0, min(len(ls), len(rs)))
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
