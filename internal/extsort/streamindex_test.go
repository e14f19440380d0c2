package extsort

import (
	"cmp"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"idxflow/internal/bptree"
	"idxflow/internal/exec"
	"idxflow/internal/pagestore"
	"idxflow/internal/tpch"
)

type kv struct{ k, v int64 }

func buildInput(t *testing.T, n int) (*pagestore.Table, []tpch.Row, string) {
	t.Helper()
	dir := t.TempDir()
	rows := tpch.Generate(float64(n)/tpch.RowsPerScale, 11)
	tab, err := pagestore.CreateTable(filepath.Join(dir, "in.pages"), 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() })
	for _, r := range rows {
		if _, err := tab.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	return tab, rows, dir
}

// buildIndexInMemory is the oracle BuildIndexStreaming must equal entry
// for entry and node for node: one scan, a stable sort by key (scan order
// breaks ties), one bulk load.
func buildIndexInMemory(t *testing.T, in *pagestore.Table, key Key) *bptree.Tree {
	t.Helper()
	var pairs []kv
	if err := in.Scan(func(rid pagestore.RID, r tpch.Row) bool {
		pairs = append(pairs, kv{key(r), rid.Pack()})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(pairs, func(a, b kv) int { return cmp.Compare(a.k, b.k) })
	keys, vals := make([]int64, len(pairs)), make([]int64, len(pairs))
	for i, p := range pairs {
		keys[i], vals[i] = p.k, p.v
	}
	tree, err := bptree.BulkLoadSorted(bptree.DefaultOrder, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func collectTree(t *testing.T, tr interface {
	Scan(func(k, v int64) bool)
}) []kv {
	t.Helper()
	var out []kv
	tr.Scan(func(k, v int64) bool {
		out = append(out, kv{k, v})
		return true
	})
	return out
}

func TestBuildIndexStreamingMatchesBuildIndex(t *testing.T) {
	in, _, dir := buildInput(t, 8000)
	commitDate := func(r tpch.Row) int64 { return int64(r.CommitDate) } // duplicate-heavy key

	want := buildIndexInMemory(t, in, commitDate)
	got, err := BuildIndexStreaming(in, commitDate, Options{MemRows: 1024, Workers: 3, TmpDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	if !reflect.DeepEqual(collectTree(t, got), collectTree(t, want)) {
		t.Fatal("streamed index scan differs from in-memory build")
	}
	// Same sorted sequence + same sealing rule => identical shape.
	gn, gl := got.Stats()
	wn, wl := want.Stats()
	if gn != wn || gl != wl {
		t.Fatalf("stats differ: (%d,%d) vs (%d,%d)", gn, gl, wn, wl)
	}
	// Run files are cleaned up.
	matches, _ := filepath.Glob(filepath.Join(dir, "idxrun-*.cols"))
	if len(matches) != 0 {
		t.Errorf("leftover index run files: %v", matches)
	}
}

// TestBuildIndexStreamingRecycledBuffers builds both of dp_build's indexes
// at every worker count and run size of interest: runs of 1024 and 1500
// rows cycle the Workers+1 chunk buffers and each worker's sort scratch
// through several runs (1500 leaves a short last run), and MemRows >= n is
// a single run. Every tree must equal buildIndexInMemory's entry for entry
// and node for node, and no run file may outlive the build.
func TestBuildIndexStreamingRecycledBuffers(t *testing.T) {
	const n = 8000
	in, _, dir := buildInput(t, n)
	keys := map[string]Key{
		"orderkey":   func(r tpch.Row) int64 { return r.OrderKey },
		"commitdate": func(r tpch.Row) int64 { return int64(r.CommitDate) },
	}
	for name, key := range keys {
		want := buildIndexInMemory(t, in, key)
		wantKV := collectTree(t, want)
		wn, wl := want.Stats()
		for _, workers := range []int{1, 2, 4} {
			for _, memRows := range []int{1024, 1500, 2 * n} {
				got, err := BuildIndexStreaming(in, key, Options{MemRows: memRows, Workers: workers, TmpDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s workers=%d memRows=%d: %v", name, workers, memRows, err)
				}
				if !reflect.DeepEqual(collectTree(t, got), wantKV) {
					t.Fatalf("%s workers=%d memRows=%d: streamed index differs from in-memory build", name, workers, memRows)
				}
				if gn, gl := got.Stats(); gn != wn || gl != wl {
					t.Fatalf("%s workers=%d memRows=%d: stats (%d,%d), want (%d,%d)", name, workers, memRows, gn, gl, wn, wl)
				}
				if matches, _ := filepath.Glob(filepath.Join(dir, "idxrun-*.cols")); len(matches) != 0 {
					t.Fatalf("%s workers=%d memRows=%d: leftover run files %v", name, workers, memRows, matches)
				}
			}
		}
	}
}

// TestBuildIndexStreamingWorkerFailure removes TmpDir before the build, so
// every worker fails its first run while the scan still has chunks to
// fill. The error must come back, within a bound that a deadlock on the
// free list would exceed, leaving no run file and no goroutine behind.
func TestBuildIndexStreamingWorkerFailure(t *testing.T) {
	in, _, dir := buildInput(t, 8000)
	tmp := filepath.Join(dir, "runs")
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 4} {
		done := make(chan error, 1)
		go func() {
			_, err := BuildIndexStreaming(in, func(r tpch.Row) int64 { return r.OrderKey },
				Options{MemRows: 1024, Workers: workers, TmpDir: tmp})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: build into a missing TmpDir succeeded", workers)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: build did not return: the free list deadlocked", workers)
		}
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*", "idxrun-*")); len(matches) != 0 {
		t.Fatalf("leftover run files: %v", matches)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "idxrun-*")); len(matches) != 0 {
		t.Fatalf("leftover run files: %v", matches)
	}
	// Workers exit just after the build returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("%d goroutines after the failed builds, %d before", now, before)
	}
}

func TestBuildIndexStreamingSingleRunAndLookups(t *testing.T) {
	in, rows, dir := buildInput(t, 2000)
	tree, err := BuildIndexStreaming(in, func(r tpch.Row) int64 { return r.OrderKey },
		Options{TmpDir: dir}) // MemRows defaults > 2000: one run, no merge fan-in
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, len(rows) / 2, len(rows) - 1} {
		packed, ok := tree.Get(rows[i].OrderKey)
		if !ok {
			t.Fatalf("key %d missing", rows[i].OrderKey)
		}
		got, err := in.Fetch(pagestore.UnpackRID(packed))
		if err != nil {
			t.Fatal(err)
		}
		if got.OrderKey != rows[i].OrderKey {
			t.Fatalf("fetched row key %d, want %d", got.OrderKey, rows[i].OrderKey)
		}
	}
}

func TestBuildIndexStreamingEmptyTable(t *testing.T) {
	dir := t.TempDir()
	in, err := pagestore.CreateTable(filepath.Join(dir, "empty.pages"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	tree, err := BuildIndexStreaming(in, func(r tpch.Row) int64 { return r.OrderKey },
		Options{TmpDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 0 {
		t.Fatalf("empty table built %d entries", tree.Len())
	}
	if _, ok := tree.Get(1); ok {
		t.Fatal("lookup hit in empty tree")
	}
}

// A run file holds key page i next to RID page i, so the merge's two
// cursors read it front to back and the file's read-ahead serves both.
func TestIndexRunPagesSideBySide(t *testing.T) {
	step := pagestore.ColCap(8)
	n := 3*step + step/2
	c := &chunk{keys: make([]int64, n), rids: make([]int64, n)}
	for i := range c.keys {
		c.keys[i], c.rids[i] = int64((i*7919)%n), int64(i)
	}
	var ps exec.PairSorter
	run, err := writeIndexRun(&ps, c, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := run.table.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := pagestore.Open(run.path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if want := 2 * ((n + step - 1) / step); f.Pages() != want {
		t.Fatalf("run file has %d pages, want %d", f.Pages(), want)
	}
	var p pagestore.Page
	var got []int64
	for id := 0; id < f.Pages(); id++ {
		if err := f.ReadPage(id, &p); err != nil {
			t.Fatal(err)
		}
		lo, col, want := id/2*step, "key", c.keys
		if id%2 == 1 {
			col, want = "rid", c.rids
		}
		want = want[lo:min(lo+step, n)]
		if got = pagestore.ColDecode(&p, got[:0]); !reflect.DeepEqual(got, want) {
			t.Fatalf("page %d is not the %s values %d..%d", id, col, lo, lo+len(want))
		}
	}
}
