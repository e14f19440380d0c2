// Package data implements the data model of §3 of the paper: partitioned
// tables with column statistics, versioned batch updates, and B+Tree index
// descriptors with the paper's analytic size, build-time and storage-cost
// formulas.
package data

import "fmt"

// Column describes one column of a table schema together with its statistic
// used by the model: the average size of the field in bytes.
type Column struct {
	Name string
	Type string
	// AvgSize is the average encoded field size in bytes.
	AvgSize float64
}

// Partition is one partition of a table: p(id, n, path) per §3.
type Partition struct {
	ID int
	// NumRecords is n, the number of records in the partition.
	NumRecords int64
	// Path locates the partition in the storage service.
	Path string
	// Version counts batch updates; bumping it invalidates indexes built
	// on the previous version (§3, Data Model).
	Version int
}

// Table models t(schema, P, S): a schema, an ordered set of partitions, and
// statistics (the per-column average sizes).
type Table struct {
	Name       string
	Columns    []Column
	Partitions []Partition
}

// NewTable returns a table with the given schema and no partitions.
func NewTable(name string, cols ...Column) *Table {
	return &Table{Name: name, Columns: cols}
}

// AddPartition appends a partition with the next ID and returns it. The
// path defaults to "<table>/<id>" when empty.
func (t *Table) AddPartition(numRecords int64, path string) Partition {
	id := len(t.Partitions)
	if path == "" {
		path = fmt.Sprintf("%s/%d", t.Name, id)
	}
	p := Partition{ID: id, NumRecords: numRecords, Path: path}
	t.Partitions = append(t.Partitions, p)
	return p
}

// Column returns the named column and whether it exists.
func (t *Table) Column(name string) (Column, bool) {
	for _, c := range t.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// RecordSize returns the average record size in bytes: the sum of the
// per-column average sizes.
func (t *Table) RecordSize() float64 {
	var sum float64
	for _, c := range t.Columns {
		sum += c.AvgSize
	}
	return sum
}

// NumRecords returns the total record count across partitions.
func (t *Table) NumRecords() int64 {
	var sum int64
	for _, p := range t.Partitions {
		sum += p.NumRecords
	}
	return sum
}

// SizeMB returns the total table size in MB from the record-size statistic.
func (t *Table) SizeMB() float64 {
	return float64(t.NumRecords()) * t.RecordSize() / 1e6
}

// PartitionSizeMB returns the size in MB of one partition.
func (t *Table) PartitionSizeMB(p Partition) float64 {
	return float64(p.NumRecords) * t.RecordSize() / 1e6
}

// UpdatePartition applies a batch update to partition id: it bumps the
// version (creating "a new version of the table partitions changed,
// invalidating old versions and indexes built on them", §3) and returns the
// new version. It returns an error for an unknown partition.
func (t *Table) UpdatePartition(id int) (int, error) {
	if id < 0 || id >= len(t.Partitions) {
		return 0, fmt.Errorf("data: table %s has no partition %d", t.Name, id)
	}
	t.Partitions[id].Version++
	return t.Partitions[id].Version, nil
}
