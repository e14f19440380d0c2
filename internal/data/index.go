package data

import (
	"fmt"
	"math"
	"strings"

	"idxflow/internal/cloud"
)

// DefaultBlockSize is the disk block size in bytes used to compute the
// B+Tree fan-out k (§3: "k is the width of the tree computed from the block
// size on the disk and the record size").
const DefaultBlockSize = 4096

// PointerSize is the size in bytes of a record pointer stored in index
// entries.
const PointerSize = 8

// Index describes an index idx(t, C, T) per §3: an index on table t over
// the ordered column set C, a B+Tree (§3 assumes it "without loss of
// generality"). Which of its partitions are built is tracked separately by
// BuildState so that the same descriptor can be shared.
type Index struct {
	Table   *Table
	Columns []string
	// BlockSize is the disk block size in bytes; DefaultBlockSize if 0.
	BlockSize float64
	// BuildConst is C(idx), the per-record CPU constant of the build-time
	// formula in seconds per (record * log2 record). If 0, it is derived
	// from the indexed column widths (wider keys compare slower).
	BuildConst float64
}

// NewIndex returns a B+Tree index over the given columns of t. It returns
// an error if a column is unknown or the column set is empty.
func NewIndex(t *Table, columns ...string) (*Index, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("data: index on %s needs at least one column", t.Name)
	}
	for _, c := range columns {
		if _, ok := t.Column(c); !ok {
			return nil, fmt.Errorf("data: table %s has no column %q", t.Name, c)
		}
	}
	return &Index{Table: t, Columns: columns}, nil
}

// Name returns the canonical index name: "<table>/<col1>+<col2>...".
func (idx *Index) Name() string {
	return idx.Table.Name + "/" + strings.Join(idx.Columns, "+")
}

// PartitionPath returns the storage path of the index partition built on
// table partition id.
func (idx *Index) PartitionPath(id int) string {
	return fmt.Sprintf("idx/%s/%d", idx.Name(), id)
}

// RecSize returns the average index record size in bytes: the indexed key
// columns plus a record pointer (§3: "RecSize is the average size of the
// record in the index, computed from column statistics").
func (idx *Index) RecSize() float64 {
	var sum float64
	for _, name := range idx.Columns {
		c, _ := idx.Table.Column(name)
		sum += c.AvgSize
	}
	return sum + PointerSize
}

// Fanout returns k, the width of the B+Tree: how many index records fit in
// one disk block. It is always at least 2.
func (idx *Index) Fanout() float64 {
	bs := idx.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	k := math.Floor(bs / idx.RecSize())
	if k < 2 {
		k = 2
	}
	return k
}

// PartitionSizeMB returns size(idx, p) in MB. For B+Trees it uses the
// geometric-series bound of §3 for a balanced tree of fan-out k over N
// records:
//
//	total records incl. non-leaf = sum_{i=0..m} k^i = (k^{m+1}-1)/(k-1),
//	m = log_k N,  size = total * RecSize,
//
// which with k^m = N is (N*k - 1)/(k - 1) * RecSize.
func (idx *Index) PartitionSizeMB(p Partition) float64 {
	n := float64(p.NumRecords)
	if n <= 0 {
		return 0
	}
	k := idx.Fanout()
	total := (n*k - 1) / (k - 1)
	return total * idx.RecSize() / 1e6
}

// SizeMB returns the total index size: the sum of the sizes of its
// partitions (§3: "The index size is computed by adding the sizes of its
// partitions").
func (idx *Index) SizeMB() float64 {
	var sum float64
	for _, p := range idx.Table.Partitions {
		sum += idx.PartitionSizeMB(p)
	}
	return sum
}

// buildConst returns C(idx): per §3 it is "a constant calculated using the
// columns in the index". We scale a base per-comparison cost by the key
// width relative to an 8-byte key, so wider keys build slower.
func (idx *Index) buildConst() float64 {
	if idx.BuildConst > 0 {
		return idx.BuildConst
	}
	const basePerRecord = 2e-7 // seconds per record*log2(n) for an 8-byte key
	return basePerRecord * (idx.RecSize() - PointerSize + 8) / 8
}

// BuildIOSeconds returns tio(idx, p): the time to read the table partition
// and write the index partition over the container's network link (§3):
//
//	tio = (p.n * RecSize_table + size(idx, p)) / cont.net.
func (idx *Index) BuildIOSeconds(p Partition, spec cloud.Spec) float64 {
	readMB := idx.Table.PartitionSizeMB(p)
	writeMB := idx.PartitionSizeMB(p)
	return spec.TransferSeconds(readMB + writeMB)
}

// BuildCPUSeconds returns the CPU time of building the index on partition
// p: C(idx) * n * log_k(n) per §3's tip formula for B+Trees.
func (idx *Index) BuildCPUSeconds(p Partition) float64 {
	n := float64(p.NumRecords)
	if n <= 1 {
		return 0
	}
	k := idx.Fanout()
	return idx.buildConst() * n * math.Log(n) / math.Log(k)
}

// BuildSeconds returns tip(idx, p) = tio + CPU build time for one partition.
func (idx *Index) BuildSeconds(p Partition, spec cloud.Spec) float64 {
	return idx.BuildIOSeconds(p, spec) + idx.BuildCPUSeconds(p)
}
