package check

import (
	"encoding/binary"
	"math"
	"testing"

	"idxflow/internal/tpch"
)

// fuzzRowBytes is the width of one fuzzed row: a little-endian int64 order
// key, then an int32 commit date and an int32 quantity.
const fuzzRowBytes = 16

// fuzzMaxRows bounds a fuzzed batch, so the audit's O(n log n) references
// stay fast.
const fuzzMaxRows = 4096

// decodeColumns reads the fuzz bytes straight into key columns, one row per
// fuzzRowBytes; a trailing partial row is ignored.
func decodeColumns(data []byte) tpch.Columns {
	n := min(len(data)/fuzzRowBytes, fuzzMaxRows)
	c := tpch.Columns{
		OrderKey:   make([]int64, n),
		CommitDate: make([]int32, n),
		Quantity:   make([]int32, n),
	}
	for i := range n {
		row := data[i*fuzzRowBytes:]
		c.OrderKey[i] = int64(binary.LittleEndian.Uint64(row))
		c.CommitDate[i] = int32(binary.LittleEndian.Uint32(row[8:]))
		c.Quantity[i] = int32(binary.LittleEndian.Uint32(row[12:]))
	}
	return c
}

// encodeRows is decodeColumns' inverse, for the seed corpus.
func encodeRows(rows ...[3]int64) []byte {
	out := make([]byte, 0, len(rows)*fuzzRowBytes)
	for _, r := range rows {
		out = binary.LittleEndian.AppendUint64(out, uint64(r[0]))
		out = binary.LittleEndian.AppendUint32(out, uint32(r[1]))
		out = binary.LittleEndian.AppendUint32(out, uint32(r[2]))
	}
	return out
}

// equalKeyRows is a full fuzzed batch whose rows all hold one order key,
// so an equi-join of its halves emits 2,048² pairs.
func equalKeyRows() []byte {
	rows := make([][3]int64, fuzzMaxRows)
	for i := range rows {
		rows[i] = [3]int64{7, int64(i % 31), 1}
	}
	return encodeRows(rows...)
}

// FuzzVectorizedEqualsScalar holds every vectorized operator to its scalar
// reference (AuditVectorized) on key columns the fuzzer writes directly,
// unlike the drawn batches of GenColumns and GenClusteredColumns.
func FuzzVectorizedEqualsScalar(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeRows([3]int64{42, 100, 7}))
	run := make([][3]int64, 0, 1024+100)
	for i := 0; i < 1024+90; i++ {
		run = append(run, [3]int64{5, int64(i % 31), int64(i)})
	}
	run = append(run, [3]int64{-5, 0, 1}, [3]int64{6, 1, 2}, [3]int64{5, -3, 3})
	f.Add(encodeRows(run...))
	f.Add(encodeRows(
		[3]int64{math.MaxInt64, math.MinInt32, math.MaxInt32},
		[3]int64{math.MinInt64, math.MaxInt32, math.MinInt32},
		[3]int64{0, 0, 0},
		[3]int64{-1, -1, -1},
		[3]int64{math.MaxInt64, 1, 1},
		[3]int64{math.MinInt64, -1, 1},
		[3]int64{1, math.MinInt32, math.MaxInt32},
	))
	f.Add(equalKeyRows())
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := AuditVectorized(decodeColumns(data)); err != nil {
			t.Fatal(err)
		}
	})
}
