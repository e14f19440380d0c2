package data

import (
	"math"
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

func TestUpdatePartitionBumpsVersion(t *testing.T) {
	tab := lineitemLike()
	tab.AddPartition(100, "")
	v, err := tab.UpdatePartition(0)
	if err != nil || v != 1 {
		t.Errorf("UpdatePartition = %d,%v, want 1,nil", v, err)
	}
	if _, err := tab.UpdatePartition(5); err == nil {
		t.Error("UpdatePartition(5) on 1-partition table succeeded")
	}
}
