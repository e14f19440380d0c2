package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"idxflow/internal/check"
	"idxflow/internal/exec"
	"idxflow/internal/extsort"
	"idxflow/internal/pagestore"
	"idxflow/internal/tpch"
	"idxflow/internal/workload"
)

// Table6Result carries the Table 6 measurements so tests can assert the
// shape without parsing the rendered table.
type Table6Result struct {
	Table *Table
	// VecSpeedups maps query -> scalar time / vectorized time.
	VecSpeedups map[string]float64
	// IndexSpeedups maps query -> scalar time / index time, for the queries
	// that have an index path.
	IndexSpeedups map[string]float64
	// Rows is the number of lineitem rows generated.
	Rows int
}

// sig is a per-query result fingerprint: every engine answering the same
// query must produce the same signature, which is how the experiment proves
// the fast paths return the same answers, not just faster ones. sum is
// either an order-sensitive fold or a commutative sum, consistently per
// query.
type sig struct {
	count int64
	sum   uint64
}

// fold is an order-sensitive FNV-style accumulator.
func fold(acc, v uint64) uint64 { return acc*1099511628211 ^ v }

// Table6 measures the paper's Table 6 on a disk-resident lineitem table: the
// table is streamed straight into disk-backed storage (both the row-major
// paged table and the columnar table — []Row is never materialized), both
// with a buffer pool of poolFrames frames, and every operator category is
// timed three ways where applicable: the scalar row-at-a-time path, the
// vectorized columnar path, and the index path over B+Trees bulk-loaded out
// of core by extsort.BuildIndexStreaming. Each query's scalar, vectorized and
// index answers are cross-checked (count plus checksum, and exact
// group-by-group equality for the aggregation); any divergence is an error,
// and the check.AuditVectorized auditor runs first on reduced-scale
// adversarial and generated batches. Scale 2 is the paper's table; scale
// 0.05 is ~300k rows.
func Table6(scale float64, seed int64, poolFrames int) (*Table6Result, error) {
	// The equivalence auditor gates the experiment: if the vectorized
	// operators diverge from the scalar references on adversarial input,
	// the timings below would compare different computations.
	if err := check.AuditVectorized(check.GenColumns(seed, 20_000)); err != nil {
		return nil, fmt.Errorf("table6: pre-audit (adversarial): %w", err)
	}
	if err := check.AuditVectorized(tpch.GenerateColumns(0.001, seed)); err != nil {
		return nil, fmt.Errorf("table6: pre-audit (lineitem): %w", err)
	}

	dir, err := os.MkdirTemp("", "idxflow-table6-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rowTab, err := pagestore.CreateTable(filepath.Join(dir, "lineitem.pages"), poolFrames)
	if err != nil {
		return nil, err
	}
	defer rowTab.Close()
	colTab, err := pagestore.CreateColumnTable(filepath.Join(dir, "lineitem.cols"), poolFrames,
		pagestore.ColSpec{Name: "orderkey", Width: 8},
		pagestore.ColSpec{Name: "commitdate", Width: 4},
		pagestore.ColSpec{Name: "quantity", Width: 4})
	if err != nil {
		return nil, err
	}
	defer colTab.Close()
	const colOrderKey, colCommitDate, colQuantity = 0, 1, 2

	// Stream the generator into both layouts in one pass.
	const loadBatch = 4096
	bok := make([]int64, 0, loadBatch)
	bcd := make([]int64, 0, loadBatch)
	bq := make([]int64, 0, loadBatch)
	var loadErr error
	var maxKey int64
	n := 0
	loadStart := time.Now()
	tpch.GenerateEach(scale, seed, func(r tpch.Row) {
		if loadErr != nil {
			return
		}
		if _, err := rowTab.Append(r); err != nil {
			loadErr = err
			return
		}
		bok = append(bok, r.OrderKey)
		bcd = append(bcd, int64(r.CommitDate))
		bq = append(bq, int64(r.Quantity))
		if len(bok) == loadBatch {
			loadErr = colTab.AppendBatch(bok, bcd, bq)
			bok, bcd, bq = bok[:0], bcd[:0], bq[:0]
		}
		maxKey = r.OrderKey
		n++
	})
	if loadErr != nil {
		return nil, loadErr
	}
	if len(bok) > 0 {
		if err := colTab.AppendBatch(bok, bcd, bq); err != nil {
			return nil, err
		}
	}
	if err := rowTab.Flush(); err != nil {
		return nil, err
	}
	if err := colTab.Flush(); err != nil {
		return nil, err
	}
	loadSec := time.Since(loadStart).Seconds()
	if n == 0 {
		return nil, fmt.Errorf("table6: scale %g generated no rows", scale)
	}

	// Out-of-core index builds: sorted (key, RID) runs spilled to columnar
	// files and merged straight into the streaming bulk loader.
	idxOpt := extsort.Options{MemRows: 1 << 20, TmpDir: dir}
	start := time.Now()
	okTree, err := extsort.BuildIndexStreaming(rowTab, func(r tpch.Row) int64 { return r.OrderKey }, idxOpt)
	if err != nil {
		return nil, err
	}
	okBuildSec := time.Since(start).Seconds()
	start = time.Now()
	cdTree, err := extsort.BuildIndexStreaming(rowTab, func(r tpch.Row) int64 { return int64(r.CommitDate) }, idxOpt)
	if err != nil {
		return nil, err
	}
	cdBuildSec := time.Since(start).Seconds()

	largeLo := maxKey / 3
	largeHi := largeLo + maxKey/50 + 1
	smallLo := maxKey / 5
	smallHi := smallLo + maxKey/2000 + 1
	lookupKey := maxKey * 2 / 3

	// Shared probe set for the joins, sampled once outside the timings.
	var leftKeys, rightKeys []int64
	err = colTab.ScanColumn(colOrderKey, func(base int64, block []int64) bool {
		for i, k := range block {
			switch (base + int64(i)) % 64 {
			case 0:
				leftKeys = append(leftKeys, k)
			case 17:
				rightKeys = append(rightKeys, k)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	// The samples inherit the column's ascending key order, which is the
	// comparison sort's best case and no real probe set's arrival order;
	// shuffle them (seeded, shared by both engines).
	shuf := rand.New(rand.NewSource(seed + 1))
	shuf.Shuffle(len(leftKeys), func(i, j int) { leftKeys[i], leftKeys[j] = leftKeys[j], leftKeys[i] })
	shuf.Shuffle(len(rightKeys), func(i, j int) { rightKeys[i], rightKeys[j] = rightKeys[j], rightKeys[i] })

	// Scalar group-by keeps its own sorted []exec.Group for the exact
	// cross-check against the vectorized aggregation.
	var scalarGroups, vecGroups []exec.Group

	scanRangeScalar := func(lo, hi int64) func() (sig, error) {
		return func() (sig, error) {
			var s sig
			err := rowTab.Scan(func(_ pagestore.RID, r tpch.Row) bool {
				if r.OrderKey >= lo && r.OrderKey < hi {
					s.count++
					s.sum += uint64(r.OrderKey)
				}
				return true
			})
			return s, err
		}
	}
	scanRangeVec := func(lo, hi int64) func() (sig, error) {
		return func() (sig, error) {
			var s sig
			var selBuf [exec.BatchSize]int32
			err := colTab.ScanColumn(colOrderKey, func(_ int64, block []int64) bool {
				for off := 0; off < len(block); off += exec.BatchSize {
					end := off + exec.BatchSize
					if end > len(block) {
						end = len(block)
					}
					sel := exec.SelectRangeBlock(block[off:end], lo, hi, selBuf[:0])
					for _, lane := range sel {
						s.count++
						s.sum += uint64(block[off+int(lane)])
					}
				}
				return true
			})
			return s, err
		}
	}
	scanRangeIndex := func(lo, hi int64) func() (sig, error) {
		return func() (sig, error) {
			var s sig
			var ferr error
			okTree.Range(lo, hi, func(k, v int64) bool {
				r, err := rowTab.Fetch(pagestore.UnpackRID(v))
				if err != nil {
					ferr = err
					return false
				}
				s.count++
				s.sum += uint64(r.OrderKey)
				return true
			})
			return s, ferr
		}
	}

	// The paper's four queries carry its measured speedup (order-by, large
	// range, small range, lookup); the other three are not in its table.
	paper := workload.Table6Speedups
	type q struct {
		name   string
		scalar func() (sig, error)
		vec    func() (sig, error)
		index  func() (sig, error) // nil: no index path for this query
		paper  float64             // 0: not in the paper's table
	}
	queries := []q{
		{name: "Select range (large)", paper: paper[1],
			scalar: scanRangeScalar(largeLo, largeHi),
			vec:    scanRangeVec(largeLo, largeHi),
			index:  scanRangeIndex(largeLo, largeHi)},
		{name: "Select range (small)", paper: paper[2],
			scalar: scanRangeScalar(smallLo, smallHi),
			vec:    scanRangeVec(smallLo, smallHi),
			index:  scanRangeIndex(smallLo, smallHi)},
		{name: "Lookup", paper: paper[3],
			scalar: func() (sig, error) {
				var s sig
				err := rowTab.Scan(func(_ pagestore.RID, r tpch.Row) bool {
					if r.OrderKey == lookupKey {
						s.count, s.sum = 1, uint64(r.OrderKey)
						return false
					}
					return true
				})
				return s, err
			},
			vec: func() (sig, error) {
				var s sig
				err := colTab.ScanColumn(colOrderKey, func(_ int64, block []int64) bool {
					if p, ok := exec.VecLookup(block, lookupKey); ok {
						s.count, s.sum = 1, uint64(block[p])
						return false
					}
					return true
				})
				return s, err
			},
			index: func() (sig, error) {
				v, ok := okTree.Get(lookupKey)
				if !ok {
					return sig{}, nil
				}
				r, err := rowTab.Fetch(pagestore.UnpackRID(v))
				if err != nil {
					return sig{}, err
				}
				return sig{count: 1, sum: uint64(r.OrderKey)}, nil
			}},
		{name: "Order by", paper: paper[0],
			// By commitdate: the generator's order keys come out already
			// sorted, which would hand the comparison sort its best case.
			scalar: func() (sig, error) {
				keys := make([]int64, 0, n)
				err := rowTab.Scan(func(_ pagestore.RID, r tpch.Row) bool {
					keys = append(keys, int64(r.CommitDate))
					return true
				})
				if err != nil {
					return sig{}, err
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				s := sig{count: int64(len(keys))}
				for _, k := range keys {
					s.sum = fold(s.sum, uint64(k))
				}
				return s, nil
			},
			vec: func() (sig, error) {
				keys := make([]int64, 0, n)
				err := colTab.ScanColumn(colCommitDate, func(_ int64, block []int64) bool {
					keys = append(keys, block...)
					return true
				})
				if err != nil {
					return sig{}, err
				}
				sorted := exec.VecSortKeys(keys)
				s := sig{count: int64(len(sorted))}
				for _, k := range sorted {
					s.sum = fold(s.sum, uint64(k))
				}
				return s, nil
			},
			index: func() (sig, error) {
				var s sig
				cdTree.Scan(func(k, v int64) bool {
					s.count++
					s.sum = fold(s.sum, uint64(k))
					return true
				})
				return s, nil
			}},
		{name: "Group by",
			scalar: func() (sig, error) {
				keys := make([]int64, 0, n)
				qty := make([]int32, 0, n)
				err := rowTab.Scan(func(_ pagestore.RID, r tpch.Row) bool {
					keys = append(keys, int64(r.CommitDate))
					qty = append(qty, r.Quantity)
					return true
				})
				if err != nil {
					return sig{}, err
				}
				pos := make([]int32, len(keys))
				for i := range pos {
					pos[i] = int32(i)
				}
				sort.SliceStable(pos, func(i, j int) bool { return keys[pos[i]] < keys[pos[j]] })
				out := make([]exec.Group, 0, 256)
				cur := -1
				for _, p := range pos {
					k := keys[p]
					if cur < 0 || out[cur].Key != k {
						out = append(out, exec.Group{Key: k})
						cur = len(out) - 1
					}
					out[cur].Count++
					out[cur].SumQuantity += int64(qty[p])
				}
				scalarGroups = out
				return groupSig(out), nil
			},
			vec: func() (sig, error) {
				keys := make([]int64, 0, n)
				qty := make([]int32, 0, n)
				err := colTab.ScanColumn(colCommitDate, func(_ int64, block []int64) bool {
					keys = append(keys, block...)
					return true
				})
				if err != nil {
					return sig{}, err
				}
				err = colTab.ScanColumn(colQuantity, func(_ int64, block []int64) bool {
					for _, v := range block {
						qty = append(qty, int32(v))
					}
					return true
				})
				if err != nil {
					return sig{}, err
				}
				vecGroups = exec.VecGroup(keys, qty)
				return groupSig(vecGroups), nil
			}},
		{name: "Join (hash)",
			scalar: func() (sig, error) {
				h := make(exec.HashIndex, n/4)
				pos := int32(0)
				err := rowTab.Scan(func(_ pagestore.RID, r tpch.Row) bool {
					h[r.OrderKey] = append(h[r.OrderKey], pos)
					pos++
					return true
				})
				if err != nil {
					return sig{}, err
				}
				var s sig
				for i, k := range leftKeys {
					for _, rp := range h[k] {
						s.count++
						s.sum = fold(s.sum, uint64(i)<<32|uint64(uint32(rp)))
					}
				}
				return s, nil
			},
			vec: func() (sig, error) {
				keys := make([]int64, 0, n)
				err := colTab.ScanColumn(colOrderKey, func(_ int64, block []int64) bool {
					keys = append(keys, block...)
					return true
				})
				if err != nil {
					return sig{}, err
				}
				pairs := exec.VecHashJoin(leftKeys, exec.VecBuildHash(keys))
				var s sig
				for _, p := range pairs {
					s.count++
					s.sum = fold(s.sum, uint64(uint32(p.Left))<<32|uint64(uint32(p.Right)))
				}
				return s, nil
			}},
		{name: "Join (sort-merge)",
			// Sampled key sets on both sides; positions are sample-relative
			// in both engines, so the pair streams are directly comparable.
			scalar: func() (sig, error) {
				return scalarSortMergeSig(leftKeys, rightKeys), nil
			},
			vec: func() (sig, error) {
				pairs := exec.VecSortMergeJoin(leftKeys, rightKeys)
				var s sig
				for _, p := range pairs {
					s.count++
					s.sum = fold(s.sum, uint64(uint32(p.Left))<<32|uint64(uint32(p.Right)))
				}
				return s, nil
			}},
	}

	res := &Table6Result{
		Table: &Table{
			Title: fmt.Sprintf("Table 6: scalar vs vectorized vs index (scale %g, %d rows, %d row pages + %d column pages, %d-frame pools)",
				scale, n, rowTab.Pages(), colTab.Pages(), poolFrames),
			Header: []string{"Query", "Scalar (ms)", "Vectorized (ms)", "Vec speedup", "Index (ms)", "Index speedup", "Paper speedup"},
		},
		VecSpeedups:   make(map[string]float64),
		IndexSpeedups: make(map[string]float64),
		Rows:          n,
	}

	timeIt := func(f func() (sig, error)) (sig, float64, error) {
		start := time.Now()
		s, err := f()
		return s, time.Since(start).Seconds(), err
	}
	for _, query := range queries {
		ss, scalarSec, err := timeIt(query.scalar)
		if err != nil {
			return nil, fmt.Errorf("table6: %s scalar: %w", query.name, err)
		}
		vs, vecSec, err := timeIt(query.vec)
		if err != nil {
			return nil, fmt.Errorf("table6: %s vectorized: %w", query.name, err)
		}
		if ss != vs {
			return nil, fmt.Errorf("table6: %s cross-check failed: scalar (count %d, sum %x) vs vectorized (count %d, sum %x)",
				query.name, ss.count, ss.sum, vs.count, vs.sum)
		}
		vecSpeedup := scalarSec / vecSec
		res.VecSpeedups[query.name] = vecSpeedup
		idxCell, idxSpeedCell := "-", "-"
		if query.index != nil {
			is, idxSec, err := timeIt(query.index)
			if err != nil {
				return nil, fmt.Errorf("table6: %s index: %w", query.name, err)
			}
			if is != ss {
				return nil, fmt.Errorf("table6: %s index cross-check failed: scalar (count %d, sum %x) vs index (count %d, sum %x)",
					query.name, ss.count, ss.sum, is.count, is.sum)
			}
			idxSpeedup := scalarSec / idxSec
			res.IndexSpeedups[query.name] = idxSpeedup
			idxCell = fmt.Sprintf("%.3f", idxSec*1e3)
			idxSpeedCell = fmt.Sprintf("%.2fx", idxSpeedup)
		}
		paperCell := "-"
		if query.paper > 0 {
			paperCell = fmt.Sprintf("%.2fx", query.paper)
		}
		res.Table.AddRow(query.name,
			fmt.Sprintf("%.3f", scalarSec*1e3),
			fmt.Sprintf("%.3f", vecSec*1e3),
			fmt.Sprintf("%.2fx", vecSpeedup),
			idxCell, idxSpeedCell, paperCell)
	}

	// The aggregation cross-check is exact, group for group, not just a
	// fingerprint.
	if !reflect.DeepEqual(scalarGroups, vecGroups) {
		return nil, fmt.Errorf("table6: Group by result sets differ (%d scalar groups, %d vectorized)",
			len(scalarGroups), len(vecGroups))
	}

	reads, _ := rowTab.IOStats()
	hits, misses := rowTab.PoolStats()
	creads, _ := colTab.IOStats()
	chits, cmisses := colTab.PoolStats()
	res.Table.Notes = append(res.Table.Notes,
		fmt.Sprintf("load (streamed, both layouts): %.1fs; streaming index builds: orderkey %.1fs, commitdate %.1fs", loadSec, okBuildSec, cdBuildSec),
		fmt.Sprintf("row table: %d page reads, pool %d hits / %d misses; column table: %d page reads, pool %d hits / %d misses",
			reads, hits, misses, creads, chits, cmisses),
		fmt.Sprintf("joins probe %d left / %d right sampled keys; single trial per cell (long-running at full scale)", len(leftKeys), len(rightKeys)),
		"every scalar/vectorized/index answer cross-checked (count+checksum; group-by compared exactly); check.AuditVectorized passed on adversarial and generated batches")
	return res, nil
}

// groupSig fingerprints an aggregation result order-sensitively.
func groupSig(groups []exec.Group) sig {
	s := sig{count: int64(len(groups))}
	for _, g := range groups {
		s.sum = fold(s.sum, uint64(g.Key))
		s.sum = fold(s.sum, uint64(g.Count))
		s.sum = fold(s.sum, uint64(g.SumQuantity))
	}
	return s
}

// scalarSortMergeSig is the row-era sort-merge join reference: stable
// comparison sorts of (key, position) entries on both sides, then a run
// merge. Mirrors exec.SortMergeJoin's output order.
func scalarSortMergeSig(leftKeys, rightKeys []int64) sig {
	type entry struct {
		k int64
		v int32
	}
	collect := func(keys []int64) []entry {
		out := make([]entry, len(keys))
		for i, k := range keys {
			out[i] = entry{k, int32(i)}
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].k < out[j].k })
		return out
	}
	ls, rs := collect(leftKeys), collect(rightKeys)
	var s sig
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
					s.count++
					s.sum = fold(s.sum, uint64(uint32(ls[i].v))<<32|uint64(uint32(rs[j].v)))
				}
				i++
			}
		}
	}
	return s
}
