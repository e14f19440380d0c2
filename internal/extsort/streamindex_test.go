package extsort

import (
	"path/filepath"
	"reflect"
	"testing"

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

	want, err := in.BuildIndex(commitDate)
	if err != nil {
		t.Fatal(err)
	}
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
