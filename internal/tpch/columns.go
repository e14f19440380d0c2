package tpch

import "slices"

// Columns is the struct-of-arrays (columnar) form of a lineitem batch's
// fixed-width key columns — the three a pagestore.ColumnTable stores: one
// slice per column, all the same length, where position i across the slices
// is row i. The operators in internal/exec process these slices instead of
// walking []Row one struct at a time.
type Columns struct {
	OrderKey   []int64
	CommitDate []int32
	Quantity   []int32
}

// Len returns the number of rows held.
func (c *Columns) Len() int { return len(c.OrderKey) }

// Grow preallocates capacity for n more rows in every column.
func (c *Columns) Grow(n int) {
	c.OrderKey = slices.Grow(c.OrderKey, n)
	c.CommitDate = slices.Grow(c.CommitDate, n)
	c.Quantity = slices.Grow(c.Quantity, n)
}

// Append adds one row's key columns.
func (c *Columns) Append(r Row) {
	c.OrderKey = append(c.OrderKey, r.OrderKey)
	c.CommitDate = append(c.CommitDate, r.CommitDate)
	c.Quantity = append(c.Quantity, r.Quantity)
}

// GenerateColumns returns the key columns of the dataset Generate returns
// for the given scale and seed, without materializing the []Row
// intermediate.
func GenerateColumns(scale float64, seed int64) Columns {
	var c Columns
	c.Grow(int(float64(RowsPerScale)*scale) + 7)
	GenerateEach(scale, seed, func(r Row) { c.Append(r) })
	return c
}
