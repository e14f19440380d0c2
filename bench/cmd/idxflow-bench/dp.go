package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"idxflow/internal/bptree"
	"idxflow/internal/exec"
	"idxflow/internal/extsort"
	"idxflow/internal/pagestore"
	"idxflow/internal/tpch"
)

// dpParams sizes the two data-plane workloads. The timed values are frozen
// in defaultDP; tests shrink them.
type dpParams struct {
	queryScale  float64 // lineitem scale factor of the dp_query table
	buildRows   int     // rows of the partition one dp_build op ingests
	poolFrames  int     // buffer-pool frames per table
	memRows     int     // extsort.Options.MemRows: rows per spilled run
	opsPerBlock int     // timed ops between two set-ups
	windowOps   int     // ops per throughput and CPU window
}

const (
	colOrderKey, colCommitDate, colQuantity = 0, 1, 2
	loadBatch                               = 4096
)

// sig fingerprints one query's answer: every engine answering the query
// must produce the same count and the same sum, where sum is a commutative
// sum or an order-sensitive fold, consistently per query.
type sig struct {
	count int64
	sum   uint64
}

func fold(acc, v uint64) uint64 { return acc*1099511628211 ^ v }

// The queries of one dp_query op: the seven-query vectorized mix of
// experiments.Table6Scale, then the three index paths with RID fetch.
const (
	qRangeLarge = iota
	qRangeSmall
	qLookup
	qOrderBy
	qGroupBy
	qHashJoin
	qSortMergeJoin
	qIndexRangeLarge
	qIndexRangeSmall
	qIndexLookup
	nQueries
)

var queryNames = [nQueries]string{
	"range-large", "range-small", "lookup", "order-by", "group-by", "hash-join",
	"sort-merge-join", "index-range-large", "index-range-small", "index-lookup",
}

// dpCounts are exact per-run counts taken at the layer boundaries.
type dpCounts struct {
	execRowsIn, execRowsOut int64
	spillBytes              uint64 // written during index builds
	spillFloor              uint64 // the (key, RID) pairs of those builds, 16 bytes each
	treeHeight              int
	treeBytesPerEntry       float64
	bytesPerRow             float64
	tablePages              int // of the smaller of the two dp_query tables
	runsPerOp               float64
	io                      ioCounts
}

// ioCounts snapshots the buffer-pool and page-file counters of the tables
// an op touches.
type ioCounts struct{ hits, misses, reads, writes int64 }

func (a ioCounts) minus(b ioCounts) ioCounts {
	return ioCounts{a.hits - b.hits, a.misses - b.misses, a.reads - b.reads, a.writes - b.writes}
}

func (a ioCounts) plus(b ioCounts) ioCounts {
	return ioCounts{a.hits + b.hits, a.misses + b.misses, a.reads + b.reads, a.writes + b.writes}
}

func tableIO(row *pagestore.Table, col *pagestore.ColumnTable) ioCounts {
	var c ioCounts
	h, m := row.PoolStats()
	r, w := row.IOStats()
	c = ioCounts{h, m, r, w}
	h, m = col.PoolStats()
	r, w = col.IOStats()
	return c.plus(ioCounts{h, m, r, w})
}

// loadLineitem appends rows to a fresh row table and a fresh three-column
// table under dir and flushes both without fsync.
func loadLineitem(dir string, poolFrames int, each func(emit func(tpch.Row))) (*pagestore.Table, *pagestore.ColumnTable, error) {
	rowTab, err := pagestore.CreateTable(filepath.Join(dir, "lineitem.pages"), poolFrames)
	if err != nil {
		return nil, nil, err
	}
	colTab, err := pagestore.CreateColumnTable(filepath.Join(dir, "lineitem.cols"), poolFrames,
		pagestore.ColSpec{Name: "orderkey", Width: 8},
		pagestore.ColSpec{Name: "commitdate", Width: 4},
		pagestore.ColSpec{Name: "quantity", Width: 4})
	if err != nil {
		rowTab.Close()
		return nil, nil, err
	}
	bok := make([]int64, 0, loadBatch)
	bcd := make([]int64, 0, loadBatch)
	bq := make([]int64, 0, loadBatch)
	var loadErr error
	each(func(r tpch.Row) {
		if loadErr != nil {
			return
		}
		if _, loadErr = rowTab.Append(r); loadErr != nil {
			return
		}
		bok = append(bok, r.OrderKey)
		bcd = append(bcd, int64(r.CommitDate))
		bq = append(bq, int64(r.Quantity))
		if len(bok) == loadBatch {
			loadErr = colTab.AppendBatch(bok, bcd, bq)
			bok, bcd, bq = bok[:0], bcd[:0], bq[:0]
		}
	})
	if loadErr == nil && len(bok) > 0 {
		loadErr = colTab.AppendBatch(bok, bcd, bq)
	}
	if loadErr == nil {
		loadErr = rowTab.Flush()
	}
	if loadErr == nil {
		loadErr = colTab.Flush()
	}
	if loadErr != nil {
		rowTab.Close()
		colTab.Close()
		return nil, nil, loadErr
	}
	return rowTab, colTab, nil
}

// queryTable is the dp_query set-up: the lineitem table on disk in both
// layouts, the order-key index, the query constants and the scalar
// engine's reference answers.
type queryTable struct {
	rowTab *pagestore.Table
	colTab *pagestore.ColumnTable
	okTree *bptree.Tree
	rows   int

	largeLo, largeHi, smallLo, smallHi, lookupKey int64
	leftKeys, rightKeys                           []int64
	want                                          [nQueries]sig

	// Scratch reused across ops, so that an op allocates what the layers
	// allocate and not what the benchmark does.
	keys []int64
	qty  []int32
	rids []int64
}

func (q *queryTable) close() {
	q.rowTab.Close()
	q.colTab.Close()
}

// newQueryTable generates the table from seed, loads it, builds the index
// and computes the reference answers.
func newQueryTable(dir string, seed int64, p dpParams) (*queryTable, error) {
	rowTab, colTab, err := loadLineitem(dir, p.poolFrames, func(emit func(tpch.Row)) {
		tpch.GenerateEach(p.queryScale, seed, emit)
	})
	if err != nil {
		return nil, err
	}
	q := &queryTable{rowTab: rowTab, colTab: colTab, rows: int(rowTab.Rows())}
	q.okTree, err = extsort.BuildIndexStreaming(rowTab, func(r tpch.Row) int64 { return r.OrderKey },
		extsort.Options{MemRows: p.memRows, TmpDir: dir})
	if err != nil {
		q.close()
		return nil, err
	}
	if err := q.reference(seed); err != nil {
		q.close()
		return nil, err
	}
	return q, nil
}

// reference answers every query with the scalar row engine: one
// row-at-a-time scan of the row table, then plain loops, maps and
// comparison sorts. It also fixes the query constants and the join probe
// sets, which depend on the generated keys.
func (q *queryTable) reference(seed int64) error {
	ok := make([]int64, 0, q.rows)
	cd := make([]int64, 0, q.rows)
	qty := make([]int32, 0, q.rows)
	err := q.rowTab.Scan(func(_ pagestore.RID, r tpch.Row) bool {
		ok = append(ok, r.OrderKey)
		cd = append(cd, int64(r.CommitDate))
		qty = append(qty, r.Quantity)
		return true
	})
	if err != nil {
		return err
	}
	if len(ok) == 0 {
		return fmt.Errorf("dp_query: the generator made no rows")
	}
	maxKey := ok[len(ok)-1]
	q.largeLo = maxKey / 3
	q.largeHi = q.largeLo + maxKey/50 + 1
	q.smallLo = maxKey / 5
	q.smallHi = q.smallLo + maxKey/2000 + 1
	q.lookupKey = maxKey * 2 / 3
	for i, k := range ok {
		switch i % 64 {
		case 0:
			q.leftKeys = append(q.leftKeys, k)
		case 17:
			q.rightKeys = append(q.rightKeys, k)
		}
	}
	// The samples inherit the column's ascending order; shuffle them as a
	// real probe set would arrive.
	shuf := rand.New(rand.NewSource(seed + 1))
	shuf.Shuffle(len(q.leftKeys), func(i, j int) { q.leftKeys[i], q.leftKeys[j] = q.leftKeys[j], q.leftKeys[i] })
	shuf.Shuffle(len(q.rightKeys), func(i, j int) { q.rightKeys[i], q.rightKeys[j] = q.rightKeys[j], q.rightKeys[i] })

	rangeSig := func(lo, hi int64) sig {
		var s sig
		for _, k := range ok {
			if k >= lo && k < hi {
				s.count++
				s.sum += uint64(k)
			}
		}
		return s
	}
	q.want[qRangeLarge] = rangeSig(q.largeLo, q.largeHi)
	q.want[qRangeSmall] = rangeSig(q.smallLo, q.smallHi)
	for _, k := range ok {
		if k == q.lookupKey {
			q.want[qLookup] = sig{1, uint64(k)}
			break
		}
	}
	q.want[qIndexRangeLarge] = q.want[qRangeLarge]
	q.want[qIndexRangeSmall] = q.want[qRangeSmall]
	q.want[qIndexLookup] = q.want[qLookup]

	sorted := append([]int64(nil), cd...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := sig{count: int64(len(sorted))}
	for _, k := range sorted {
		s.sum = fold(s.sum, uint64(k))
	}
	q.want[qOrderBy] = s

	byKey := make(map[int64]*exec.Group)
	for i, k := range cd {
		g := byKey[k]
		if g == nil {
			g = &exec.Group{Key: k}
			byKey[k] = g
		}
		g.Count++
		g.SumQuantity += int64(qty[i])
	}
	groups := make([]exec.Group, 0, len(byKey))
	for _, g := range byKey {
		groups = append(groups, *g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Key < groups[j].Key })
	q.want[qGroupBy] = groupSig(groups)

	positions := func(keys []int64) map[int64][]int32 {
		m := make(map[int64][]int32, len(keys)/4)
		for i, k := range keys {
			m[k] = append(m[k], int32(i))
		}
		return m
	}
	s = sig{}
	table := positions(ok)
	for i, k := range q.leftKeys {
		for _, rp := range table[k] {
			s.count++
			s.sum = fold(s.sum, pairWord(int32(i), rp))
		}
	}
	q.want[qHashJoin] = s

	// Sort-merge order: by key, then left position, then right position.
	s = sig{}
	right := positions(q.rightKeys)
	leftPos := make([]int32, len(q.leftKeys))
	for i := range leftPos {
		leftPos[i] = int32(i)
	}
	sort.SliceStable(leftPos, func(i, j int) bool { return q.leftKeys[leftPos[i]] < q.leftKeys[leftPos[j]] })
	for _, lp := range leftPos {
		for _, rp := range right[q.leftKeys[lp]] {
			s.count++
			s.sum = fold(s.sum, pairWord(lp, rp))
		}
	}
	q.want[qSortMergeJoin] = s
	return nil
}

func pairWord(left, right int32) uint64 { return uint64(uint32(left))<<32 | uint64(uint32(right)) }

func groupSig(groups []exec.Group) sig {
	s := sig{count: int64(len(groups))}
	for _, g := range groups {
		s.sum = fold(s.sum, uint64(g.Key))
		s.sum = fold(s.sum, uint64(g.Count))
		s.sum = fold(s.sum, uint64(g.SumQuantity))
	}
	return s
}

func pairsSig(pairs []exec.JoinPair) sig {
	s := sig{count: int64(len(pairs))}
	for _, p := range pairs {
		s.sum = fold(s.sum, pairWord(p.Left, p.Right))
	}
	return s
}

// scanKeys reads column ci into q.keys through the buffer pool.
func (q *queryTable) scanKeys(tr *tracer, op, ci int) error {
	var err error
	q.keys = q.keys[:0]
	tr.do("pagestore.colscan", op, func() {
		err = q.colTab.ScanColumn(ci, func(_ int64, block []int64) bool {
			q.keys = append(q.keys, block...)
			return true
		})
	})
	return err
}

// run answers every query once and returns the answers' fingerprints. Each
// query reads its own columns, as independent queries would.
func (q *queryTable) run(tr *tracer, op int, c *dpCounts) (got [nQueries]sig, err error) {
	execDo := func(name string, in int, fn func() int) {
		tr.do(name, op, func() { c.execRowsOut += int64(fn()) })
		c.execRowsIn += int64(in)
	}
	selectRange := func(query int, lo, hi int64) error {
		if err := q.scanKeys(tr, op, colOrderKey); err != nil {
			return err
		}
		var sel []int32
		execDo("exec.select", len(q.keys), func() int {
			sel = exec.VecSelectRange(q.keys, lo, hi)
			return len(sel)
		})
		s := sig{count: int64(len(sel))}
		for _, p := range sel {
			s.sum += uint64(q.keys[p])
		}
		got[query] = s
		return nil
	}
	if err = selectRange(qRangeLarge, q.largeLo, q.largeHi); err != nil {
		return got, err
	}
	if err = selectRange(qRangeSmall, q.smallLo, q.smallHi); err != nil {
		return got, err
	}

	if err = q.scanKeys(tr, op, colOrderKey); err != nil {
		return got, err
	}
	execDo("exec.select", len(q.keys), func() int {
		if p, ok := exec.VecLookup(q.keys, q.lookupKey); ok {
			got[qLookup] = sig{1, uint64(q.keys[p])}
			return 1
		}
		return 0
	})

	if err = q.scanKeys(tr, op, colCommitDate); err != nil {
		return got, err
	}
	execDo("exec.sort", len(q.keys), func() int {
		sorted := exec.VecSortKeys(q.keys)
		s := sig{count: int64(len(sorted))}
		for _, k := range sorted {
			s.sum = fold(s.sum, uint64(k))
		}
		got[qOrderBy] = s
		return len(sorted)
	})

	if err = q.scanKeys(tr, op, colCommitDate); err != nil {
		return got, err
	}
	q.qty = q.qty[:0]
	tr.do("pagestore.colscan", op, func() {
		err = q.colTab.ScanColumn(colQuantity, func(_ int64, block []int64) bool {
			for _, v := range block {
				q.qty = append(q.qty, int32(v))
			}
			return true
		})
	})
	if err != nil {
		return got, err
	}
	execDo("exec.group", len(q.keys), func() int {
		groups := exec.VecGroup(q.keys, q.qty)
		got[qGroupBy] = groupSig(groups)
		return len(groups)
	})

	if err = q.scanKeys(tr, op, colOrderKey); err != nil {
		return got, err
	}
	var table exec.HashIndex
	execDo("exec.hashbuild", len(q.keys), func() int {
		table = exec.VecBuildHash(q.keys)
		return len(table)
	})
	execDo("exec.hashprobe", len(q.leftKeys), func() int {
		pairs := exec.VecHashJoin(q.leftKeys, table)
		got[qHashJoin] = pairsSig(pairs)
		return len(pairs)
	})
	table = nil

	execDo("exec.smj", len(q.leftKeys)+len(q.rightKeys), func() int {
		pairs := exec.VecSortMergeJoin(q.leftKeys, q.rightKeys)
		got[qSortMergeJoin] = pairsSig(pairs)
		return len(pairs)
	})

	indexRange := func(query int, lo, hi int64) error {
		q.rids = q.rids[:0]
		tr.do("bptree.range", op, func() {
			q.okTree.Range(lo, hi, func(_, v int64) bool {
				q.rids = append(q.rids, v)
				return true
			})
		})
		s, err := q.fetch(tr, op)
		got[query] = s
		return err
	}
	if err = indexRange(qIndexRangeLarge, q.largeLo, q.largeHi); err != nil {
		return got, err
	}
	if err = indexRange(qIndexRangeSmall, q.smallLo, q.smallHi); err != nil {
		return got, err
	}
	q.rids = q.rids[:0]
	tr.do("bptree.get", op, func() {
		if v, ok := q.okTree.Get(q.lookupKey); ok {
			q.rids = append(q.rids, v)
		}
	})
	got[qIndexLookup], err = q.fetch(tr, op)
	return got, err
}

// fetch reads the rows q.rids point at and fingerprints their order keys.
func (q *queryTable) fetch(tr *tracer, op int) (sig, error) {
	var s sig
	var err error
	tr.do("pagestore.fetch", op, func() {
		for _, v := range q.rids {
			var r tpch.Row
			if r, err = q.rowTab.Fetch(pagestore.UnpackRID(v)); err != nil {
				return
			}
			s.count++
			s.sum += uint64(r.OrderKey)
		}
	})
	return s, err
}

// buildPartition is the dp_build set-up: the rows one op ingests.
func buildPartition(seed int64, rows int) []tpch.Row {
	// Generate the smallest whole-order prefix that holds rows rows, then
	// cut it, so that every seed gives the same row count.
	out := make([]tpch.Row, 0, rows+8)
	scale := float64(rows+8) / float64(tpch.RowsPerScale)
	tpch.GenerateEach(scale, seed, func(r tpch.Row) { out = append(out, r) })
	return out[:rows]
}

// buildOp ingests part into fresh tables under dir, builds the order-key
// and commit-date indexes out of core, validates them and removes every
// file. It returns the number of index entries built.
func buildOp(tr *tracer, op int, part []tpch.Row, dir string, p dpParams, c *dpCounts) (entries int, err error) {
	opDir, err := os.MkdirTemp(dir, "build-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(opDir)

	var rowTab *pagestore.Table
	var colTab *pagestore.ColumnTable
	tr.do("pagestore.append", op, func() {
		rowTab, colTab, err = loadLineitem(opDir, p.poolFrames, func(emit func(tpch.Row)) {
			for _, r := range part {
				emit(r)
			}
		})
	})
	if err != nil {
		return 0, err
	}
	defer rowTab.Close()
	defer colTab.Close()

	opt := extsort.Options{MemRows: p.memRows, Workers: runtime.GOMAXPROCS(0), TmpDir: opDir}
	keys := []extsort.Key{
		func(r tpch.Row) int64 { return r.OrderKey },
		func(r tpch.Row) int64 { return int64(r.CommitDate) },
	}
	var last *bptree.Tree
	for _, key := range keys {
		var tree *bptree.Tree
		written := selfWrittenBytes()
		tr.do("extsort.build", op, func() {
			tree, err = extsort.BuildIndexStreaming(rowTab, key, opt)
		})
		if err != nil {
			return 0, err
		}
		c.spillBytes += selfWrittenBytes() - written
		c.spillFloor += 16 * uint64(len(part))
		if err := tree.Validate(); err != nil {
			return 0, fmt.Errorf("dp_build: invalid tree: %w", err)
		}
		if tree.Len() != len(part) {
			return 0, fmt.Errorf("dp_build: tree holds %d entries, want %d", tree.Len(), len(part))
		}
		entries += tree.Len()
		last = tree
	}
	c.io = c.io.plus(tableIO(rowTab, colTab))
	c.treeHeight = last.Height()
	c.treeBytesPerEntry = float64(last.ApproxSizeBytes()) / float64(last.Len())
	c.bytesPerRow = float64(rowTab.Pages()) * pagestore.PageSize / float64(len(part))

	if tr != nil {
		// The bulk loader alone, on the keys the merge fed it.
		sk := make([]int64, 0, last.Len())
		sv := make([]int64, 0, last.Len())
		last.Scan(func(k, v int64) bool {
			sk = append(sk, k)
			sv = append(sv, v)
			return true
		})
		tr.do("bptree.bulkload", op, func() {
			_, err = bptree.BulkLoadSorted(last.Order(), sk, sv)
		})
	}
	return entries, err
}

// dpBlock runs one set-up and opsPerBlock timed ops of a data-plane
// workload in this process.
func dpBlock(workload string, seed int64, p dpParams, dir string, k *hostKernel, tr *tracer, firstOp int, c *dpCounts) (block, error) {
	var b block
	blockDir, err := os.MkdirTemp(dir, workload+"-")
	if err != nil {
		return b, err
	}
	defer os.RemoveAll(blockDir)

	var runOp func(op int) (outcome float64, ok bool, err error)
	setupStart := time.Now()
	switch workload {
	case "dp_query":
		q, err := newQueryTable(blockDir, seed, p)
		if err != nil {
			return b, err
		}
		defer q.close()
		c.treeHeight = q.okTree.Height()
		c.treeBytesPerEntry = float64(q.okTree.ApproxSizeBytes()) / float64(q.okTree.Len())
		c.bytesPerRow = float64(q.rowTab.Pages()) * pagestore.PageSize / float64(q.rows)
		c.tablePages = min(q.rowTab.Pages(), q.colTab.Pages())
		before := tableIO(q.rowTab, q.colTab)
		defer func() { c.io = c.io.plus(tableIO(q.rowTab, q.colTab).minus(before)) }()
		runOp = func(op int) (float64, bool, error) {
			got, err := q.run(tr, op, c)
			if err != nil {
				return 0, false, err
			}
			var rows int64
			for i, s := range got {
				if s != q.want[i] {
					fmt.Fprintf(os.Stderr, "dp_query op %d: %s answered (count %d, sum %x), the scalar engine (count %d, sum %x)\n",
						op, queryNames[i], s.count, s.sum, q.want[i].count, q.want[i].sum)
					return 0, false, nil
				}
				rows += s.count
			}
			return float64(rows), true, nil
		}
	case "dp_build":
		part := buildPartition(seed, p.buildRows)
		c.runsPerOp = float64(2 * ((len(part) + p.memRows - 1) / p.memRows))
		runOp = func(op int) (float64, bool, error) {
			entries, err := buildOp(tr, op, part, blockDir, p, c)
			return float64(entries) / 1000, err == nil, err
		}
	default:
		return b, fmt.Errorf("no data-plane workload %q", workload)
	}
	b.setupS = time.Since(setupStart).Seconds()

	// The block's peak memory is that of its ops: give the set-up's
	// garbage back first.
	debug.FreeOSMemory()
	resetPeakRSS()

	b.latMS = make([]float64, 0, p.opsPerBlock)
	lat := make([]float64, p.windowOps)
	for done := 0; done < p.opsPerBlock; done += p.windowOps {
		cpu, err := selfCPUSeconds()
		if err != nil {
			return b, err
		}
		start := time.Now()
		for i := range lat {
			op := firstOp + done + i
			var outcome float64
			var ok bool
			var opErr error
			opStart := time.Now()
			tr.do("op", op, func() { outcome, ok, opErr = runOp(op) })
			lat[i] = time.Since(opStart).Seconds() * 1e3
			if opErr != nil {
				return b, opErr
			}
			b.ops++
			if !ok {
				b.failed++
			}
			b.outcome += outcome
		}
		wallS := time.Since(start).Seconds()
		cpuEnd, err := selfCPUSeconds()
		if err != nil {
			return b, err
		}
		kernelMS, err := k.sampleMS()
		if err != nil {
			return b, err
		}
		b.windows = append(b.windows, newWindow(len(lat), wallS, cpuEnd-cpu, kernelMS))
		b.latMS = append(b.latMS, lat...)
		b.timedS += wallS
	}
	b.peakRSSMB, err = peakRSSMB(os.Getpid())
	return b, err
}
