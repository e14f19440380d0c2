package exec

import (
	"math/rand"
	"testing"

	"idxflow/internal/tpch"
)

func benchCols(b *testing.B, n int) tpch.Columns {
	b.Helper()
	return tpch.GenerateColumns(float64(n)/tpch.RowsPerScale, 21)
}

func BenchmarkScanOrderBy(b *testing.B) {
	keys := benchCols(b, 50_000).OrderKey
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanOrderBy(keys)
	}
}

func BenchmarkVecSelectRange(b *testing.B) {
	cols := benchCols(b, 50_000)
	maxKey := cols.OrderKey[cols.Len()-1]
	lo, hi := maxKey/3, maxKey/3+maxKey/50+1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecSelectRange(cols.OrderKey, lo, hi)
	}
}

// The sort and group pairs use the commitdate key: order keys come out of
// the generator already sorted (dense order numbers), which is the
// comparison sort's best case and no sort's real workload; commit dates
// are uniformly distributed.
func BenchmarkScanOrderByCommitDate(b *testing.B) {
	keys := WidenInt32(nil, benchCols(b, 50_000).CommitDate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanOrderBy(keys)
	}
}

func BenchmarkVecSortPositions(b *testing.B) {
	cols := benchCols(b, 50_000)
	keys := WidenInt32(nil, cols.CommitDate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecSortKeysPositions(keys)
	}
}

func BenchmarkScanGroup(b *testing.B) {
	cols := benchCols(b, 50_000)
	keys := WidenInt32(nil, cols.CommitDate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanGroup(keys, cols.Quantity)
	}
}

func BenchmarkVecGroup(b *testing.B) {
	cols := benchCols(b, 50_000)
	keys := WidenInt32(nil, cols.CommitDate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecGroup(keys, cols.Quantity)
	}
}

// BenchmarkVecBuildHash builds over 600k lineitem order keys (the dp_query
// size): as generated, clustered by order in runs of 1-7 rows, and the same
// keys shuffled, which takes the build through the radix sort.
func BenchmarkVecBuildHash(b *testing.B) {
	clustered := tpch.GenerateColumns(0.1, 21).OrderKey
	shuffled := append([]int64(nil), clustered...)
	rand.New(rand.NewSource(21)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, c := range []struct {
		name string
		keys []int64
	}{{"clustered", clustered}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchHash = VecBuildHash(c.keys)
			}
		})
	}
}

var benchHash HashIndex

func BenchmarkVecHashJoin(b *testing.B) {
	lcols := benchCols(b, 10_000)
	rcols := benchCols(b, 10_000)
	h := VecBuildHash(rcols.OrderKey)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecHashJoin(lcols.OrderKey, h)
	}
}

func BenchmarkVecSortMergeJoin(b *testing.B) {
	lcols := benchCols(b, 10_000)
	rcols := benchCols(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecSortMergeJoin(lcols.OrderKey, rcols.OrderKey)
	}
}

// BenchmarkSortMergeJoin times the sort of both sides' positions and the
// merge.
func BenchmarkSortMergeJoin(b *testing.B) {
	lcols := benchCols(b, 10_000)
	rcols := benchCols(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SortMergeJoin(lcols.OrderKey, rcols.OrderKey)
	}
}
