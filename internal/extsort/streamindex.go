package extsort

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"idxflow/internal/bptree"
	"idxflow/internal/exec"
	"idxflow/internal/pagestore"
	"idxflow/internal/tpch"
)

// BuildIndexStreaming bulk-loads a B+Tree over key(r) -> packed RID like
// Table.BuildIndex, but out of core: instead of materializing the full
// key/RID arrays, (key, rid) pairs spill to sorted two-column run files
// (written concurrently by opt.Workers sorters), and the k-way merge
// streams sorted batches straight into bptree.BulkLoader. Peak memory is
// O(Workers * MemRows), independent of the table size. The resulting tree
// is identical to Table.BuildIndex's: run sorting is stable and the merge
// tie-breaks equal keys by scan order, matching bptree.SortByKey.
func BuildIndexStreaming(in *pagestore.Table, key Key, opt Options) (*bptree.Tree, error) {
	opt = opt.withDefaults()
	runs, err := makeIndexRuns(in, key, opt)
	if err != nil {
		return nil, err
	}
	defer closeIndexRuns(runs)
	return mergeIndexRuns(runs)
}

// indexRun is one sorted (key, rid) run spilled as a two-column table.
type indexRun struct {
	table *pagestore.ColumnTable
	path  string
	idx   int
}

func closeIndexRuns(runs []indexRun) {
	for _, r := range runs {
		r.table.Close()
		os.Remove(r.path)
	}
}

// chunk is the buffer of one run's (key, rid) pairs: filled by the scan,
// sorted in place and spilled by a worker, then recycled.
type chunk struct {
	keys, rids []int64
	idx        int
}

// writeIndexRun sorts one chunk in place with the worker's sorter and
// spills it as a columnar run file: two int64 columns, packed 512 values
// per page.
func writeIndexRun(ps *exec.PairSorter, c *chunk, tmpDir string) (indexRun, error) {
	ps.Sort(c.keys, c.rids)
	path := filepath.Join(tmpDir, fmt.Sprintf("idxrun-%04d.cols", c.idx))
	rt, err := pagestore.CreateColumnTable(path, 4,
		pagestore.ColSpec{Name: "key", Width: 8},
		pagestore.ColSpec{Name: "rid", Width: 8})
	if err != nil {
		return indexRun{}, err
	}
	fail := func(err error) (indexRun, error) {
		rt.Close()
		os.Remove(path)
		return indexRun{}, err
	}
	if err := rt.AppendBatch(c.keys, c.rids); err != nil {
		return fail(err)
	}
	if err := rt.Flush(); err != nil {
		return fail(err)
	}
	return indexRun{table: rt, path: path, idx: c.idx}, nil
}

// makeIndexRuns scans the table once (the pool is not concurrency-safe)
// and hands MemRows-sized (key, rid) chunks to a worker pool for sorting
// and spilling. Chunks cycle through a free list of Workers+1 buffers, one
// filling while each worker sorts another, made on first need; each
// worker keeps one sorter, so a build allocates its buffers once and not
// once per run.
func makeIndexRuns(in *pagestore.Table, key Key, opt Options) ([]indexRun, error) {
	jobs := make(chan *chunk, opt.Workers)
	free := make(chan *chunk, opt.Workers+1)
	results := make(chan indexRun, opt.Workers)
	errs := make(chan error, opt.Workers)

	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ps exec.PairSorter
			for c := range jobs {
				r, err := writeIndexRun(&ps, c, opt.TmpDir)
				c.keys, c.rids = c.keys[:0], c.rids[:0]
				free <- c // never blocks: at most cap(free) chunks exist
				if err != nil {
					errs <- err
					return
				}
				results <- r
			}
		}()
	}

	var runs []indexRun
	collectDone := make(chan struct{})
	go func() {
		for r := range results {
			runs = append(runs, r)
		}
		close(collectDone)
	}()

	// take returns an empty chunk: a free one, a new one while fewer than
	// cap(free) exist, or else the next one a worker frees. A worker that
	// fails frees its chunk and reports, so the wait ends either way.
	made := 0
	take := func() (*chunk, error) {
		select {
		case c := <-free:
			return c, nil
		default:
		}
		if made < cap(free) {
			made++
			return &chunk{keys: make([]int64, 0, opt.MemRows), rids: make([]int64, 0, opt.MemRows)}, nil
		}
		select {
		case c := <-free:
			return c, nil
		case err := <-errs:
			return nil, err
		}
	}
	nextIdx := 0
	submit := func(c *chunk) error {
		c.idx = nextIdx
		select {
		case err := <-errs:
			return err
		case jobs <- c:
			nextIdx++
			return nil
		}
	}

	var cur *chunk
	var feedErr error
	scanErr := in.Scan(func(rid pagestore.RID, r tpch.Row) bool {
		if cur == nil {
			if cur, feedErr = take(); feedErr != nil {
				return false
			}
		}
		cur.keys = append(cur.keys, key(r))
		cur.rids = append(cur.rids, rid.Pack())
		if len(cur.keys) == opt.MemRows {
			feedErr, cur = submit(cur), nil
			return feedErr == nil
		}
		return true
	})
	if scanErr == nil && feedErr == nil && cur != nil {
		feedErr = submit(cur)
	}
	close(jobs)
	wg.Wait()
	close(results)
	<-collectDone

	err := scanErr
	if err == nil {
		err = feedErr
	}
	if err == nil {
		select {
		case err = <-errs:
		default:
		}
	}
	if err != nil {
		closeIndexRuns(runs)
		return nil, err
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].idx < runs[j].idx })
	return runs, nil
}

// idxRunCursor streams one run's (key, rid) pairs block at a time. Both
// columns are width 8, so their page blocks stay in lockstep.
type idxRunCursor struct {
	keyCur, valCur *pagestore.ColCursor
	keys, vals     []int64
	pos            int
}

func (rc *idxRunCursor) refill() error {
	var okK, okV bool
	var err error
	rc.keys, okK, err = rc.keyCur.NextBlock(rc.keys[:0])
	if err != nil {
		return err
	}
	rc.vals, okV, err = rc.valCur.NextBlock(rc.vals[:0])
	if err != nil {
		return err
	}
	if okK != okV || len(rc.keys) != len(rc.vals) {
		return fmt.Errorf("extsort: index run columns out of step (%d keys, %d rids)", len(rc.keys), len(rc.vals))
	}
	rc.pos = 0
	return nil
}

// mergeIndexRuns k-way merges the sorted runs into a BulkLoader, feeding
// it exec.BatchSize-entry batches so the full sorted arrays never exist.
func mergeIndexRuns(runs []indexRun) (*bptree.Tree, error) {
	cursors := make([]*idxRunCursor, len(runs))
	h := make(mergeHeap, 0, len(runs))
	for i, r := range runs {
		kc, err := r.table.NewColCursor(0)
		if err != nil {
			return nil, err
		}
		vc, err := r.table.NewColCursor(1)
		if err != nil {
			return nil, err
		}
		rc := &idxRunCursor{keyCur: kc, valCur: vc}
		if err := rc.refill(); err != nil {
			return nil, err
		}
		cursors[i] = rc
		if len(rc.keys) > 0 {
			h = append(h, mergeItem{key: rc.keys[0], src: i})
			rc.pos = 1
		}
	}
	h.init()

	loader := bptree.NewBulkLoader(bptree.DefaultOrder)
	var batchK, batchV [exec.BatchSize]int64
	n := 0
	flush := func() error {
		if n == 0 {
			return nil
		}
		err := loader.Append(batchK[:n], batchV[:n])
		n = 0
		return err
	}
	for len(h) > 0 {
		it := h[0]
		rc := cursors[it.src]
		batchK[n] = it.key
		batchV[n] = rc.vals[rc.pos-1]
		n++
		if n == exec.BatchSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		if rc.pos >= len(rc.keys) {
			if err := rc.refill(); err != nil {
				return nil, err
			}
		}
		if len(rc.keys) == 0 { // run exhausted
			h.pop()
			continue
		}
		h[0] = mergeItem{key: rc.keys[rc.pos], src: it.src}
		rc.pos++
		h.down(0)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return loader.Finish()
}
