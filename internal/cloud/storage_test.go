package cloud

import (
	"math"
	"testing"

	"idxflow/internal/telemetry"
)

func TestStoragePutGetDelete(t *testing.T) {
	s := NewStorage(DefaultPricing())
	if err := s.Put("a", 10); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.TotalMB() != 10 {
		t.Errorf("after Put(a, 10): %d files, %g MB, want 1 file of 10 MB", s.Len(), s.TotalMB())
	}
	if s.Delete("missing") {
		t.Error("Delete(missing) = true")
	}
	if !s.Delete("a") {
		t.Error("Delete(a) = false")
	}
	if s.Delete("a") {
		t.Error("second Delete(a) = true")
	}
	if s.Len() != 0 || s.TotalMB() != 0 {
		t.Errorf("after Delete(a): %d files, %g MB, want none", s.Len(), s.TotalMB())
	}
}

func TestStorageRejectsNegativeSize(t *testing.T) {
	s := NewStorage(DefaultPricing())
	if err := s.Put("a", -1); err == nil {
		t.Error("Put with negative size accepted")
	}
}

func TestStorageTransfersTracked(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewStorage(DefaultPricing()).Instrument(reg)
	s.Put("a", 10)
	s.Put("a", 5) // a replaced file is uploaded again
	s.Delete("a") // no transfer
	if got := reg.Counter("idxflow_storage_transferred_mb_total", "").Value(); got != 15 {
		t.Errorf("idxflow_storage_transferred_mb_total = %g, want 15", got)
	}
}

func TestStorageTotalAndPaths(t *testing.T) {
	s := NewStorage(DefaultPricing())
	s.Put("b", 5)
	s.Put("a", 10)
	if got := s.TotalMB(); got != 15 {
		t.Errorf("TotalMB = %g, want 15", got)
	}
	paths := s.Paths()
	if len(paths) != 2 || paths[0] != "a" || paths[1] != "b" {
		t.Errorf("Paths = %v, want [a b]", paths)
	}
}

func TestStorageAdvanceAccruesCost(t *testing.T) {
	p := DefaultPricing()
	s := NewStorage(p)
	s.Put("a", 100)
	// 2 quanta (120 s) of 100 MB at 1e-4 $/MB/q = $0.02.
	got := s.Advance(120)
	if math.Abs(got-0.02) > 1e-12 {
		t.Errorf("Advance(120) = %g, want 0.02", got)
	}
	// Advancing backwards is a no-op.
	if got2 := s.Advance(60); got2 != got {
		t.Errorf("Advance(60) after Advance(120) = %g, want %g", got2, got)
	}
	// One more quantum.
	got3 := s.Advance(180)
	if math.Abs(got3-0.03) > 1e-12 {
		t.Errorf("Advance(180) = %g, want 0.03", got3)
	}
	if s.CostAccrued() != got3 {
		t.Errorf("CostAccrued = %g, want %g", s.CostAccrued(), got3)
	}
}

func TestStorageAdvanceReflectsDeletes(t *testing.T) {
	p := DefaultPricing()
	s := NewStorage(p)
	s.Put("a", 100)
	s.Advance(60) // $0.01
	s.Delete("a")
	got := s.Advance(120) // nothing stored in the second quantum
	if math.Abs(got-0.01) > 1e-12 {
		t.Errorf("cost after delete = %g, want 0.01", got)
	}
}
