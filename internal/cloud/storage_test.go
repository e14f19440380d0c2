package cloud

import (
	"math"
	"testing"
)

func TestStorageAdvanceAccruesCost(t *testing.T) {
	p := DefaultPricing()
	s := NewStorage(p)
	// 2 quanta (120 s) of 100 MB at 1e-4 $/MB/q = $0.02.
	got := s.Advance(120, 100)
	if math.Abs(got-0.02) > 1e-12 {
		t.Errorf("Advance(120) = %g, want 0.02", got)
	}
	// Advancing backwards accrues nothing.
	if got2 := s.Advance(60, 100); got2 != 0 {
		t.Errorf("Advance(60) after Advance(120) = %g, want 0", got2)
	}
	// One more quantum.
	got3 := s.Advance(180, 100)
	if math.Abs(got3-0.01) > 1e-12 {
		t.Errorf("Advance(180) = %g, want 0.01", got3)
	}
	if want := got + got3; s.CostAccrued() != want {
		t.Errorf("CostAccrued = %g, want %g", s.CostAccrued(), want)
	}
}

// TestStorageAdvanceReflectsDeletes: once the footprint is 0, nothing more
// accrues.
func TestStorageAdvanceReflectsDeletes(t *testing.T) {
	p := DefaultPricing()
	s := NewStorage(p)
	s.Advance(60, 100) // $0.01
	if got := s.Advance(120, 0); got != 0 {
		t.Errorf("nothing stored in the second quantum accrued %g", got)
	}
	if got := s.CostAccrued(); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("cost after delete = %g, want 0.01", got)
	}
}
