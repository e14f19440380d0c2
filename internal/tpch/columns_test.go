package tpch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// holdsRows reports whether each column of c holds its field of rows, in
// row order.
func holdsRows(c Columns, rows []Row) bool {
	if c.Len() != len(rows) || len(c.CommitDate) != len(rows) || len(c.Quantity) != len(rows) {
		return false
	}
	for i, r := range rows {
		if c.OrderKey[i] != r.OrderKey || c.CommitDate[i] != r.CommitDate || c.Quantity[i] != r.Quantity {
			return false
		}
	}
	return true
}

// TestGenerateColumnsMatchesGenerate proves the streaming columnar
// generator emits exactly the key columns of the row generator's dataset
// for the same (scale, seed).
func TestGenerateColumnsMatchesGenerate(t *testing.T) {
	rows := Generate(0.001, 17)
	cols := GenerateColumns(0.001, 17)
	if !holdsRows(cols, rows) {
		t.Fatal("GenerateColumns dataset differs from Generate")
	}
}

// TestColumnsRoundTripProperty checks that each column Append builds from
// a random row batch holds its rows' fields exactly.
func TestColumnsRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([]Row, int(n))
		for i := range rows {
			rows[i] = Row{
				OrderKey:   rng.Int63() - rng.Int63(),
				CommitDate: int32(rng.Int31() - rng.Int31()),
				Quantity:   rng.Int31(),
			}
		}
		var c Columns
		for _, r := range rows {
			c.Append(r)
		}
		return holdsRows(c, rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestColumnsAppendRow checks that Append into Grow's capacity holds the
// generated rows' fields.
func TestColumnsAppendRow(t *testing.T) {
	rows := Generate(0.0002, 5)
	var c Columns
	c.Grow(len(rows))
	for _, r := range rows {
		c.Append(r)
	}
	if !holdsRows(c, rows) {
		t.Fatal("Append-built columns do not hold their rows' fields")
	}
}

// TestGenerateEachStreams checks the streaming generator visits rows in
// Generate order without buffering.
func TestGenerateEachStreams(t *testing.T) {
	want := Generate(0.0005, 9)
	i := 0
	GenerateEach(0.0005, 9, func(r Row) {
		if i < len(want) && want[i] != r {
			t.Fatalf("row %d differs: %+v vs %+v", i, r, want[i])
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("streamed %d rows, want %d", i, len(want))
	}
}
