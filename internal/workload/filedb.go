package workload

import (
	"math"
	"math/rand"
	"strconv"

	"idxflow/internal/data"
)

// MaxPartitionMB is the maximum file-partition size (§6.1: 128 MB).
const MaxPartitionMB = 128

// Table6Speedups are the measured index speedups of Table 6: order-by,
// large range select, small range select and lookup. Each (dataflow, index)
// pair draws its speedup from these values.
var Table6Speedups = [4]float64{7.44, 94.44, 307.50, 627.14}

// IndexColumns are the four indexed columns of Table 5, reused as the
// potential index per file (§6.1: "Four potential indexes for each file").
var IndexColumns = [4]string{"orderkey", "commitdate", "shipinstruct", "comment"}

// File is one input file of the database: a partitioned table with four
// potential indexes.
type File struct {
	App     App
	Table   *data.Table
	Indexes [4]*data.Index
}

// SizeMB returns the file size.
func (f File) SizeMB() float64 { return f.Table.SizeMB() }

// FileDB is the shared database of dataflow input files (§6.1: 125 files,
// 76.69 GB, 713 partitions of at most 128 MB).
type FileDB struct {
	Catalog *data.Catalog
	Files   []File
	byApp   map[App][]int
}

// fileColumns returns the schema used for every file: the four indexable
// columns of Table 5 plus a payload column bringing the record to a
// lineitem-like width.
func fileColumns() []data.Column {
	return []data.Column{
		{Name: "orderkey", Type: "integer", AvgSize: 4.25},
		{Name: "commitdate", Type: "date", AvgSize: 10.8},
		{Name: "shipinstruct", Type: "char(25)", AvgSize: 12.4},
		{Name: "comment", Type: "varchar(44)", AvgSize: 27.2},
		{Name: "payload", Type: "blob", AvgSize: 61.35},
	}
}

// NewFileDB builds the file database deterministically from seed: per-app
// file counts and size distributions follow Table 4 (CyberShake files are
// heavy-tailed lognormal), partitions are capped at 128 MB, and the four
// potential indexes of every file are registered with the catalog.
func NewFileDB(seed int64) (*FileDB, error) {
	rng := rand.New(rand.NewSource(seed))
	db := &FileDB{Catalog: data.NewCatalog(), byApp: make(map[App][]int)}
	for _, app := range Apps {
		st := Table4(app)
		for i := 0; i < st.Files; i++ {
			sizeMB := fileSizeMB(rng, app, st)
			f, err := db.addFile(app, i, sizeMB)
			if err != nil {
				return nil, err
			}
			db.byApp[app] = append(db.byApp[app], f)
		}
	}
	return db, nil
}

func fileSizeMB(rng *rand.Rand, app App, st Stats) float64 {
	if app == Cybershake {
		// Lognormal heavy tail: median ~200 MB, sigma 2 gives mean ~1.5 GB.
		v := math.Exp(math.Log(200) + rng.NormFloat64()*2)
		return math.Min(math.Max(v, st.MinMB), st.MaxMB)
	}
	return truncNorm(rng, st.MeanMB, st.StdevMB, st.MinMB, st.MaxMB)
}

func (db *FileDB) addFile(app App, i int, sizeMB float64) (int, error) {
	num := strconv.Itoa(i)
	if len(num) < 2 {
		num = "0" + num
	}
	name := app.String() + "/f" + num
	t := data.NewTable(name, fileColumns()...)
	recSize := t.RecordSize()
	totalRows := int64(sizeMB * 1e6 / recSize)
	if totalRows < 1 {
		totalRows = 1
	}
	rowsPerPart := int64(MaxPartitionMB * 1e6 / recSize)
	for remaining := totalRows; remaining > 0; {
		n := rowsPerPart
		if remaining < n {
			n = remaining
		}
		t.AddPartition(n, "")
		remaining -= n
	}
	if err := db.Catalog.AddTable(t); err != nil {
		return 0, err
	}
	f := File{App: app, Table: t}
	for ci, col := range IndexColumns {
		idx, err := data.NewIndex(t, col)
		if err != nil {
			return 0, err
		}
		if _, err := db.Catalog.RegisterIndex(idx); err != nil {
			return 0, err
		}
		f.Indexes[ci] = idx
	}
	db.Files = append(db.Files, f)
	return len(db.Files) - 1, nil
}

// ByApp returns the files of an application.
func (db *FileDB) ByApp(app App) []File {
	idx := db.byApp[app]
	out := make([]File, len(idx))
	for i, fi := range idx {
		out[i] = db.Files[fi]
	}
	return out
}

// TotalMB returns the total database size.
func (db *FileDB) TotalMB() float64 {
	var sum float64
	for _, f := range db.Files {
		sum += f.SizeMB()
	}
	return sum
}

// TotalPartitions returns the number of file partitions.
func (db *FileDB) TotalPartitions() int {
	n := 0
	for _, f := range db.Files {
		n += len(f.Table.Partitions)
	}
	return n
}

// IndexByName returns the index descriptor with the given canonical name.
func (db *FileDB) IndexByName(name string) *data.Index {
	st := db.Catalog.State(name)
	if st == nil {
		return nil
	}
	return st.Index
}
