// Package tpch provides a synthetic stand-in for the TPC-H lineitem table
// used in §6.1 of the paper to size indexes (Table 5) and measure index
// speedups (Table 6). The official dbgen tool and its data are not
// available offline, so this package generates rows with the same schema,
// key distribution (orders with 1-7 lineitems) and column widths; the
// asymptotic behaviour of access paths — which is what the speedups measure
// — is preserved.
package tpch

import (
	"math/rand"

	"idxflow/internal/data"
)

// RowsPerScale is the approximate number of lineitem rows per TPC-H scale
// factor (the paper uses scale 2 with "approximately 12 million rows").
const RowsPerScale = 6_000_000

// OrdersPerScale is the number of orders per scale factor; each order has
// 1-7 lineitems, averaging 4.
const OrdersPerScale = 1_500_000

// ShipInstructs are the four possible lineitem shipping instructions.
var ShipInstructs = [4]string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}

// Row is one lineitem row, carrying the columns that Table 5 indexes plus a
// couple of measure columns used by the executor's aggregations.
type Row struct {
	OrderKey      int64
	CommitDate    int32 // days since 1992-01-01, spanning ~7 years
	ShipInstruct  uint8 // index into ShipInstructs
	Comment       string
	Quantity      int32
	ExtendedPrice float64
}

// CommitDateDays is the range of commit dates in days.
const CommitDateDays = 7 * 365

// Generate returns approximately RowsPerScale*scale rows, deterministically
// from the seed. Order keys are assigned like TPC-H: dense order numbers,
// each with 1-7 lineitems.
func Generate(scale float64, seed int64) []Row {
	target := int(float64(RowsPerScale) * scale)
	rows := make([]Row, 0, target+7)
	GenerateEach(scale, seed, func(r Row) { rows = append(rows, r) })
	return rows
}

// GenerateEach streams the rows Generate would return, in the same order,
// to emit — the bounded-memory form used when the dataset is loaded
// straight into disk-backed storage at scales where []Row would not fit.
func GenerateEach(scale float64, seed int64, emit func(Row)) {
	rng := rand.New(rand.NewSource(seed))
	target := int(float64(RowsPerScale) * scale)
	generated := 0
	var orderKey int64
	for generated < target {
		orderKey++
		lines := 1 + rng.Intn(7)
		for l := 0; l < lines; l++ {
			emit(Row{
				OrderKey:      orderKey,
				CommitDate:    int32(rng.Intn(CommitDateDays)),
				ShipInstruct:  uint8(rng.Intn(len(ShipInstructs))),
				Comment:       randComment(rng),
				Quantity:      int32(1 + rng.Intn(50)),
				ExtendedPrice: 900 + rng.Float64()*104000,
			})
			generated++
		}
	}
}

var commentWords = []string{
	"carefully", "final", "deposits", "sleep", "furiously", "quickly",
	"regular", "requests", "ironic", "packages", "bold", "accounts",
	"express", "pending", "theodolites", "across", "slyly", "special",
}

// randComment builds a TPC-H-flavoured comment averaging ~27 characters
// (the average width behind Table 5's comment index size).
func randComment(rng *rand.Rand) string {
	n := 2 + rng.Intn(4) // 2-5 words
	var b []byte
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, commentWords[rng.Intn(len(commentWords))]...)
	}
	return string(b)
}

// Column average widths in bytes, chosen so the analytic index sizes of
// internal/data reproduce Table 5 of the paper: a 4-byte integer orderkey,
// 10-to-11-char date strings, the average of the four ship instructions,
// and ~27-char comments, over a ~116-byte record.
const (
	orderKeyWidth     = 4.25
	dateWidth         = 10.8
	shipInstructWidth = 12.4
	commentWidth      = 27.2
)

// TableDescriptor returns the data-model descriptor of lineitem at the
// given scale, partitioned so each partition holds at most maxPartMB of
// data (the paper uses 128 MB file partitions, §6.1).
func TableDescriptor(scale float64, maxPartMB float64) *data.Table {
	t := data.NewTable("lineitem",
		data.Column{Name: "orderkey", Type: "integer", AvgSize: orderKeyWidth},
		data.Column{Name: "partkey", Type: "integer", AvgSize: 4},
		data.Column{Name: "suppkey", Type: "integer", AvgSize: 4},
		data.Column{Name: "linenumber", Type: "integer", AvgSize: 4},
		data.Column{Name: "quantity", Type: "decimal", AvgSize: 4},
		data.Column{Name: "extendedprice", Type: "decimal", AvgSize: 8},
		data.Column{Name: "discount", Type: "decimal", AvgSize: 4},
		data.Column{Name: "tax", Type: "decimal", AvgSize: 4},
		data.Column{Name: "returnflag", Type: "char(1)", AvgSize: 1},
		data.Column{Name: "linestatus", Type: "char(1)", AvgSize: 1},
		data.Column{Name: "shipdate", Type: "date", AvgSize: dateWidth},
		data.Column{Name: "commitdate", Type: "date", AvgSize: dateWidth},
		data.Column{Name: "receiptdate", Type: "date", AvgSize: dateWidth},
		data.Column{Name: "shipinstruct", Type: "char(25)", AvgSize: shipInstructWidth},
		data.Column{Name: "shipmode", Type: "char(10)", AvgSize: 4.3},
		data.Column{Name: "comment", Type: "varchar(44)", AvgSize: commentWidth},
	)
	totalRows := int64(float64(RowsPerScale) * scale)
	if maxPartMB <= 0 {
		maxPartMB = 128
	}
	t.AddPartitions(totalRows, maxPartMB)
	return t
}
