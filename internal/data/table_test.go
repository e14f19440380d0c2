package data

import (
	"math"
	"reflect"
	"testing"
)

func lineitemLike() *Table {
	// Columns mirror Table 5 of the paper.
	return NewTable("lineitem",
		Column{Name: "orderkey", Type: "integer", AvgSize: 4},
		Column{Name: "commitdate", Type: "date", AvgSize: 8},
		Column{Name: "shipinstruct", Type: "char(20)", AvgSize: 20},
		Column{Name: "comment", Type: "text", AvgSize: 27},
	)
}

func TestTableSchema(t *testing.T) {
	tab := lineitemLike()
	if got := tab.RecordSize(); got != 59 {
		t.Errorf("RecordSize = %g, want 59", got)
	}
	if _, ok := tab.Column("orderkey"); !ok {
		t.Error("Column(orderkey) missing")
	}
	if _, ok := tab.Column("nope"); ok {
		t.Error("Column(nope) found")
	}
}

func TestAddPartition(t *testing.T) {
	tab := lineitemLike()
	p0 := tab.AddPartition(1000, "")
	p1 := tab.AddPartition(2000, "custom/path")
	if p0.ID != 0 || p1.ID != 1 {
		t.Errorf("partition IDs = %d,%d, want 0,1", p0.ID, p1.ID)
	}
	if p0.Path != "lineitem/0" {
		t.Errorf("default path = %q, want lineitem/0", p0.Path)
	}
	if p1.Path != "custom/path" {
		t.Errorf("custom path = %q", p1.Path)
	}
	if tab.NumRecords() != 3000 {
		t.Errorf("NumRecords = %d, want 3000", tab.NumRecords())
	}
	wantMB := 3000 * 59.0 / 1e6
	if got := tab.SizeMB(); math.Abs(got-wantMB) > 1e-12 {
		t.Errorf("SizeMB = %g, want %g", got, wantMB)
	}
}

// TestAddPartitions: a row count is cut into full partitions of at most
// maxPartMB and one remainder, and a partition smaller than one record
// still holds one.
func TestAddPartitions(t *testing.T) {
	for _, c := range []struct {
		rows      int64
		maxPartMB float64
		want      []int64
	}{
		// 59-byte records: 0.059 MB is 1,000 of them.
		{2500, 0.059, []int64{1000, 1000, 500}},
		{2000, 0.059, []int64{1000, 1000}},
		{10, 1, []int64{10}},
		{3, 1e-9, []int64{1, 1, 1}},
		{0, 1, nil},
	} {
		tab := lineitemLike()
		tab.AddPartitions(c.rows, c.maxPartMB)
		var got []int64
		for i, p := range tab.Partitions {
			if p.ID != i {
				t.Errorf("%d rows at %g MB: partition %d has ID %d", c.rows, c.maxPartMB, i, p.ID)
			}
			got = append(got, p.NumRecords)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%d rows at %g MB: partitions of %v records, want %v", c.rows, c.maxPartMB, got, c.want)
		}
	}
}
