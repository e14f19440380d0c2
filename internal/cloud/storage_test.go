package cloud

import (
	"math"
	"testing"

	"idxflow/internal/telemetry"
)

func TestStorageTransfersTracked(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewStorage(DefaultPricing()).Instrument(reg)
	s.Upload(10)
	s.Upload(5) // a rebuilt file is uploaded again
	if got := reg.Counter("idxflow_storage_transferred_mb_total", "").Value(); got != 15 {
		t.Errorf("idxflow_storage_transferred_mb_total = %g, want 15", got)
	}
}

// TestStorageGaugesFollowAdvance: the footprint gauges read what the last
// Advance was given, a backwards one included.
func TestStorageGaugesFollowAdvance(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewStorage(DefaultPricing()).Instrument(reg)
	size, files := reg.Gauge("idxflow_storage_mb", ""), reg.Gauge("idxflow_storage_files", "")
	if size.Value() != 0 || files.Value() != 0 {
		t.Errorf("fresh meter: %g MB in %g files, want none", size.Value(), files.Value())
	}
	s.Advance(60, 15, 2)
	if size.Value() != 15 || files.Value() != 2 {
		t.Errorf("after Advance(60, 15, 2): %g MB in %g files", size.Value(), files.Value())
	}
	s.Advance(30, 5, 1)
	if size.Value() != 5 || files.Value() != 1 {
		t.Errorf("after Advance(30, 5, 1): %g MB in %g files", size.Value(), files.Value())
	}
}

func TestStorageAdvanceAccruesCost(t *testing.T) {
	p := DefaultPricing()
	s := NewStorage(p)
	// 2 quanta (120 s) of 100 MB at 1e-4 $/MB/q = $0.02.
	got := s.Advance(120, 100, 1)
	if math.Abs(got-0.02) > 1e-12 {
		t.Errorf("Advance(120) = %g, want 0.02", got)
	}
	// Advancing backwards is a no-op.
	if got2 := s.Advance(60, 100, 1); got2 != got {
		t.Errorf("Advance(60) after Advance(120) = %g, want %g", got2, got)
	}
	// One more quantum.
	got3 := s.Advance(180, 100, 1)
	if math.Abs(got3-0.03) > 1e-12 {
		t.Errorf("Advance(180) = %g, want 0.03", got3)
	}
	if s.CostAccrued() != got3 {
		t.Errorf("CostAccrued = %g, want %g", s.CostAccrued(), got3)
	}
}

// TestStorageAdvanceReflectsDeletes: once the footprint is 0, nothing more
// accrues.
func TestStorageAdvanceReflectsDeletes(t *testing.T) {
	p := DefaultPricing()
	s := NewStorage(p)
	s.Advance(60, 100, 1)       // $0.01
	got := s.Advance(120, 0, 0) // nothing stored in the second quantum
	if math.Abs(got-0.01) > 1e-12 {
		t.Errorf("cost after delete = %g, want 0.01", got)
	}
}
