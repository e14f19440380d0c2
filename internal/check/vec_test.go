package check

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"idxflow/internal/exec"
	"idxflow/internal/tpch"
)

func TestAuditVectorizedOnAdversarialBatches(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, n := range []int{1, 2, 100, 1023, 1024, 1025, 5000} {
			cols := GenColumns(seed, n)
			if err := AuditVectorized(cols); err != nil {
				t.Fatalf("seed %d n %d: %v", seed, n, err)
			}
		}
	}
}

func TestAuditVectorizedOnClusteredRuns(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, n := range []int{1, 2, 100, 1024, 1025, 5000} {
			cols := GenClusteredColumns(seed, n)
			if cols.Len() != n {
				t.Fatalf("seed %d: generated %d rows, want %d", seed, cols.Len(), n)
			}
			if !slices.IsSorted(cols.OrderKey) {
				t.Fatalf("seed %d n %d: order keys are not clustered", seed, n)
			}
			if err := AuditVectorized(cols); err != nil {
				t.Fatalf("seed %d n %d: %v", seed, n, err)
			}
		}
	}
}

func TestAuditVectorizedOnGeneratedLineitem(t *testing.T) {
	cols := tpch.GenerateColumns(0.001, 7)
	if err := AuditVectorized(cols); err != nil {
		t.Fatal(err)
	}
}

// TestAuditVectorizedEqualKeysBounded audits a full fuzzed batch of one
// key. Compared over the full halves, its two sort-merge joins emit 4.2M
// pairs each and the audit allocates some 370 MB; above sortMergeCap pairs
// they are compared on the 512-row prefixes. Four joins of 512² pairs
// remain (the hash join, the nested loop and the two sort-merge joins),
// some 10 MB each with append's growth, so the audit stays under 48 MB.
func TestAuditVectorizedEqualKeysBounded(t *testing.T) {
	cols := decodeColumns(equalKeyRows())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := AuditVectorized(cols)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 48<<20 {
		t.Fatalf("auditing %d equal keys allocated %d MB, want under 48 MB", cols.Len(), got>>20)
	}
}

func TestAuditVectorizedEmpty(t *testing.T) {
	if err := AuditVectorized(tpch.Columns{}); err != nil {
		t.Fatalf("empty batch flagged: %v", err)
	}
}

func TestGenColumnsDeterministic(t *testing.T) {
	a, b := GenColumns(42, 500), GenColumns(42, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GenColumns not deterministic in seed")
	}
	c := GenColumns(43, 500)
	if reflect.DeepEqual(a, c) {
		t.Fatal("GenColumns ignores the seed")
	}
}

// TestReportIfDiffCatchesMismatch proves the audit's comparator actually
// fires: a fabricated divergence must be recorded, and equal values must
// not be.
func TestReportIfDiffCatchesMismatch(t *testing.T) {
	r := &Report{}
	reportIfDiff(r, "vec-selftest", []int32{1, 2, 3}, []int32{1, 2, 4})
	if len(r.Violations) != 1 {
		t.Fatalf("mismatch not recorded: %d violations", len(r.Violations))
	}
	if r.Violations[0].Name != "vec-selftest" {
		t.Fatalf("violation name = %q", r.Violations[0].Name)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "vec-selftest") {
		t.Fatalf("Err() = %v", err)
	}
	clean := &Report{}
	reportIfDiff(clean, "vec-selftest", []int32{1, 2}, []int32{1, 2})
	if len(clean.Violations) != 0 {
		t.Fatal("equal values recorded as violation")
	}
	// A hash index whose keys all match but with one position moved between
	// posting lists — the mistake a run boundary off by one would make.
	planted := &Report{}
	moved := exec.VecBuildHash([]int64{1, 1, 2})
	moved[0].Pos, moved[1].Pos = []int32{0}, []int32{1, 2}
	reportHashDiff(planted, "vec-build-hash", map[int64][]int32{1: {0, 1}, 2: {2}}, moved)
	if len(planted.Violations) != 1 {
		t.Fatal("planted posting-list mismatch not recorded")
	}
	// nil vs empty is a real representational difference the audit must not
	// paper over.
	strict := &Report{}
	reportIfDiff(strict, "vec-selftest", []int32(nil), []int32{})
	if len(strict.Violations) != 1 {
		t.Fatal("nil-vs-empty divergence not recorded")
	}
}
