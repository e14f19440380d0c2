package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"idxflow/internal/workload"
)

// goldenFlowDigest is the digest TestBenchShapedStream computes at PR 17
// (commit ec3eaae), where the gain history was never trimmed and long
// histories were summed by delta aggregates. Windowing the history must not
// move one bit of any flow's outcome.
const goldenFlowDigest = "62dd2dd87fc0194df36499b7904c75584eb52d353183cf842ff82feec67b1e7c"

// TestBenchShapedStream submits 525 flows of the benchmark's serve_unique
// shape (a bench block's worth for one tenant, about 13 history windows):
// applications in rotation, every flow a fresh DAG issued at 0 so the
// service runs them back to back, under DefaultConfig. One pass feeds both
// checks; it is not skipped under -short because CI's race pass is -short.
func TestBenchShapedStream(t *testing.T) {
	db := testDB(t)
	gen := workload.NewGenerator(db, 18)
	cfg := DefaultConfig()
	svc := NewService(cfg, db)
	window := cfg.Gain.WindowW * cfg.Sched.Pricing.QuantumSeconds

	h := sha256.New()
	u64 := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	retained := func() (records, indexes int) {
		for _, name := range db.Catalog.IndexNames() {
			if rs := svc.eval.History.Records(name); len(rs) > 0 {
				records += len(rs)
				indexes++
			}
		}
		return records, indexes
	}
	var starts []float64 // every flow's start, for the per-window maximum
	var at5, at10, indexes int
	var used, aliased int // IndexesUsed entries, and those sharing memory with the flow's own strings
	for seq := 0; seq < 525; seq++ {
		flow := gen.Flow(workload.Apps[seq%len(workload.Apps)], seq, 0)
		res := svc.SubmitCtx(context.Background(), flow)
		for _, u := range res.IndexesUsed {
			used++
			for _, iu := range flow.Indexes {
				if unsafe.StringData(iu.Index) == unsafe.StringData(u) {
					aliased++
				}
			}
		}
		u64(math.Float64bits(res.Makespan))
		u64(math.Float64bits(res.MoneyQuanta))
		u64(uint64(res.BuildsCompleted))
		u64(uint64(res.BuildsKilled))
		fmt.Fprintf(h, "%q%q", res.IndexesUsed, res.Deleted)

		if at10 == 0 {
			starts = append(starts, res.Start)
		}
		if at5 == 0 && svc.Clock() >= 5*window {
			at5, _ = retained()
		}
		if at10 == 0 && svc.Clock() >= 10*window {
			at10, indexes = retained()
		}
	}

	// Every flow's outcome to the last bit: the float bits of makespan and
	// money, the indexes used and deleted, and the build counts.
	t.Run("golden digest", func(t *testing.T) {
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenFlowDigest {
			t.Fatalf("flow digest %s, want %s", got, goldenFlowDigest)
		}
	})

	// Metrics.Results outlives the flow. A result that named its indexes by
	// the flow's own strings would keep, for a parsed flow, a line of the
	// request body alive per entry.
	t.Run("results do not alias the flow", func(t *testing.T) {
		if used == 0 || aliased != 0 {
			t.Errorf("%d of %d IndexesUsed entries share memory with the submitted flow, want 0 of many", aliased, used)
		}
	})

	// The soak for the windowed history: over ten windows of service time
	// the retained gain records stop growing after the first windows and
	// stay under indexes × the most flows one window held (an index is
	// trimmed only when a flow uses it again, so one that falls out of use
	// keeps at most its last window's records). Untrimmed, the count grows by
	// about 22 records per flow: 3,884 at five windows and 8,909 at ten.
	t.Run("gain history bounded", func(t *testing.T) {
		if at10 == 0 {
			t.Fatalf("stream ended at %g s, before ten windows (%g s)", svc.Clock(), 10*window)
		}
		maxInWindow := 0
		for lo, hi := 0, 0; hi < len(starts); hi++ {
			for starts[hi]-starts[lo] > window {
				lo++
			}
			if n := hi - lo + 1; n > maxInWindow {
				maxInWindow = n
			}
		}
		t.Logf("%d flows to ten windows: %d records at five, %d at ten, %d indexes, at most %d flows per window",
			len(starts), at5, at10, indexes, maxInWindow)
		if at10 > indexes*maxInWindow {
			t.Errorf("retained %d records > %d indexes × %d flows per window", at10, indexes, maxInWindow)
		}
		// Flat, not equal: which indexes the last window's flows touched varies.
		if float64(at10) > 1.25*float64(at5) {
			t.Errorf("retained records grew from %d at five windows to %d at ten", at5, at10)
		}
	})
}
