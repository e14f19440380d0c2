package exec

import (
	"math/rand"
	"testing"

	"idxflow/internal/tpch"
)

func benchRows(b *testing.B, n int) []tpch.Row {
	b.Helper()
	return tpch.Generate(float64(n)/tpch.RowsPerScale, 21)
}

func BenchmarkScanOrderBy(b *testing.B) {
	rows := benchRows(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanOrderBy(rows, OrderKey)
	}
}

func BenchmarkScanLookup(b *testing.B) {
	rows := benchRows(b, 50_000)
	key := rows[len(rows)-1].OrderKey
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanLookup(rows, OrderKey, key)
	}
}

func BenchmarkScanRange(b *testing.B) {
	rows := benchRows(b, 50_000)
	maxKey := rows[len(rows)-1].OrderKey
	lo, hi := maxKey/3, maxKey/3+maxKey/50+1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanRange(rows, OrderKey, lo, hi)
	}
}

func BenchmarkVecSelectRange(b *testing.B) {
	rows := benchRows(b, 50_000)
	cols := tpch.ColumnsFromRows(rows)
	maxKey := rows[len(rows)-1].OrderKey
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
	rows := benchRows(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanOrderBy(rows, CommitDate)
	}
}

func BenchmarkVecSortPositions(b *testing.B) {
	rows := benchRows(b, 50_000)
	cols := tpch.ColumnsFromRows(rows)
	keys := WidenInt32(nil, cols.CommitDate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecSortPositions(keys)
	}
}

func BenchmarkScanGroup(b *testing.B) {
	rows := benchRows(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanGroup(rows, CommitDate)
	}
}

func BenchmarkVecGroup(b *testing.B) {
	rows := benchRows(b, 50_000)
	cols := tpch.ColumnsFromRows(rows)
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
	left := benchRows(b, 10_000)
	right := benchRows(b, 10_000)
	lcols := tpch.ColumnsFromRows(left)
	rcols := tpch.ColumnsFromRows(right)
	h := VecBuildHash(rcols.OrderKey)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecHashJoin(lcols.OrderKey, h)
	}
}

func BenchmarkVecSortMergeJoin(b *testing.B) {
	left := benchRows(b, 10_000)
	right := benchRows(b, 10_000)
	lcols := tpch.ColumnsFromRows(left)
	rcols := tpch.ColumnsFromRows(right)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecSortMergeJoin(lcols.OrderKey, rcols.OrderKey)
	}
}

func BenchmarkSortMergeJoin(b *testing.B) {
	left := benchRows(b, 10_000)
	right := benchRows(b, 10_000)
	lt, err := BuildBTree(left, OrderKey)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := BuildBTree(right, OrderKey)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SortMergeJoin(lt, rt)
	}
}
