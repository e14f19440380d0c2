package extsort

import (
	"path/filepath"
	"testing"

	"idxflow/internal/pagestore"
	"idxflow/internal/tpch"
)

// BenchmarkBuildIndexStreaming is the build half of one dp_build op: the
// order-key and commit-date indexes of a 150k-row partition, each built
// out of core in runs of 32,768 rows. The table is loaded once, outside
// the timer. Workers is fixed at 2, so the number of chunk buffers and
// sorters, and with it allocs/op, is one value on any machine.
func BenchmarkBuildIndexStreaming(b *testing.B) {
	dir := b.TempDir()
	in, err := pagestore.CreateTable(filepath.Join(dir, "in.pages"), 64)
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close()
	tpch.GenerateEach(150_000.0/tpch.RowsPerScale, 11, func(r tpch.Row) {
		if err == nil {
			_, err = in.Append(r)
		}
	})
	if err == nil {
		err = in.Flush()
	}
	if err != nil {
		b.Fatal(err)
	}
	keys := []Key{
		func(r tpch.Row) int64 { return r.OrderKey },
		func(r tpch.Row) int64 { return int64(r.CommitDate) },
	}
	opt := Options{MemRows: 32_768, Workers: 2, TmpDir: dir}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, key := range keys {
			tree, err := BuildIndexStreaming(in, key, opt)
			if err != nil {
				b.Fatal(err)
			}
			if tree.Len() != int(in.Rows()) {
				b.Fatalf("tree holds %d entries, want %d", tree.Len(), in.Rows())
			}
		}
	}
}
