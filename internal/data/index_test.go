package data

import (
	"math"
	"testing"
	"testing/quick"

	"idxflow/internal/cloud"
)

func TestNewIndexValidation(t *testing.T) {
	tab := lineitemLike()
	if _, err := NewIndex(tab); err == nil {
		t.Error("index with no columns accepted")
	}
	if _, err := NewIndex(tab, "nope"); err == nil {
		t.Error("index on unknown column accepted")
	}
	idx, err := NewIndex(tab, "orderkey")
	if err != nil {
		t.Fatal(err)
	}
	if idx.Name() != "lineitem/orderkey" {
		t.Errorf("Name = %q", idx.Name())
	}
	multi, err := NewIndex(tab, "orderkey", "commitdate")
	if err != nil {
		t.Fatal(err)
	}
	if multi.Name() != "lineitem/orderkey+commitdate" {
		t.Errorf("multi-column Name = %q", multi.Name())
	}
}

func TestIndexRecSizeAndFanout(t *testing.T) {
	tab := lineitemLike()
	idx, _ := NewIndex(tab, "orderkey")
	if got := idx.RecSize(); got != 4+PointerSize {
		t.Errorf("RecSize = %g, want 12", got)
	}
	// k = floor(4096/12) = 341.
	if got := idx.Fanout(); got != 341 {
		t.Errorf("Fanout = %g, want 341", got)
	}
}

func TestFanoutNeverBelowTwo(t *testing.T) {
	tab := NewTable("wide", Column{Name: "blob", AvgSize: 10000})
	idx, _ := NewIndex(tab, "blob")
	if got := idx.Fanout(); got != 2 {
		t.Errorf("Fanout for oversized record = %g, want 2", got)
	}
}

func TestPartitionSizeMBGrowsWithRecords(t *testing.T) {
	tab := lineitemLike()
	idx, _ := NewIndex(tab, "orderkey")
	small := Partition{NumRecords: 1000}
	large := Partition{NumRecords: 1_000_000}
	s, l := idx.PartitionSizeMB(small), idx.PartitionSizeMB(large)
	if s <= 0 || l <= 0 || l <= s {
		t.Errorf("sizes = %g, %g; want positive and growing", s, l)
	}
	// The geometric-series overhead is small: total size is close to
	// leaf-only size N*RecSize, within a factor k/(k-1).
	leafOnly := 1_000_000 * idx.RecSize() / 1e6
	if l < leafOnly || l > leafOnly*idx.Fanout()/(idx.Fanout()-1)+1e-9 {
		t.Errorf("size %g out of [leafOnly=%g, leafOnly*k/(k-1)=%g]", l, leafOnly, leafOnly*idx.Fanout()/(idx.Fanout()-1))
	}
	if got := idx.PartitionSizeMB(Partition{NumRecords: 0}); got != 0 {
		t.Errorf("size of empty partition = %g, want 0", got)
	}
}

func TestIndexSizeMBSumsPartitions(t *testing.T) {
	tab := lineitemLike()
	tab.AddPartition(1000, "")
	tab.AddPartition(2000, "")
	idx, _ := NewIndex(tab, "orderkey")
	want := idx.PartitionSizeMB(tab.Partitions[0]) + idx.PartitionSizeMB(tab.Partitions[1])
	if got := idx.SizeMB(); math.Abs(got-want) > 1e-12 {
		t.Errorf("SizeMB = %g, want %g", got, want)
	}
}

func TestBuildTimes(t *testing.T) {
	tab := lineitemLike()
	p := tab.AddPartition(1_000_000, "")
	idx, _ := NewIndex(tab, "orderkey")
	spec := cloud.DefaultSpec()

	io := idx.BuildIOSeconds(p, spec)
	wantIO := (tab.PartitionSizeMB(p) + idx.PartitionSizeMB(p)) / spec.NetMBps
	if math.Abs(io-wantIO) > 1e-9 {
		t.Errorf("BuildIOSeconds = %g, want %g", io, wantIO)
	}

	cpu := idx.BuildCPUSeconds(p)
	if cpu <= 0 {
		t.Errorf("BuildCPUSeconds = %g, want > 0", cpu)
	}
	total := idx.BuildSeconds(p, spec)
	if math.Abs(total-(io+cpu)) > 1e-9 {
		t.Errorf("BuildSeconds = %g, want io+cpu = %g", total, io+cpu)
	}
	if got := idx.BuildCPUSeconds(Partition{NumRecords: 1}); got != 0 {
		t.Errorf("BuildCPUSeconds(n=1) = %g, want 0", got)
	}
}

func TestWiderKeysBuildSlower(t *testing.T) {
	tab := lineitemLike()
	p := tab.AddPartition(100_000, "")
	narrow, _ := NewIndex(tab, "orderkey")
	wide, _ := NewIndex(tab, "comment")
	if narrow.BuildCPUSeconds(p) >= wide.BuildCPUSeconds(p) {
		t.Error("wider key should cost more CPU to build")
	}
}

// TestIndexSizeMonotoneProperty: index size is monotone in the record count.
func TestIndexSizeMonotoneProperty(t *testing.T) {
	tab := lineitemLike()
	idx, _ := NewIndex(tab, "orderkey")
	f := func(a, b uint32) bool {
		na, nb := int64(a%10_000_000), int64(b%10_000_000)
		if na > nb {
			na, nb = nb, na
		}
		sa := idx.PartitionSizeMB(Partition{NumRecords: na})
		sb := idx.PartitionSizeMB(Partition{NumRecords: nb})
		return sa <= sb+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
