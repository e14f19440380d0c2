package cloud

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultPricingMatchesTable3(t *testing.T) {
	p := DefaultPricing()
	if p.QuantumSeconds != 60 {
		t.Errorf("QuantumSeconds = %g, want 60", p.QuantumSeconds)
	}
	if p.VMPerQuantum != 0.1 {
		t.Errorf("VMPerQuantum = %g, want 0.1", p.VMPerQuantum)
	}
	if p.StoragePerMBQuantum != 1e-4 {
		t.Errorf("StoragePerMBQuantum = %g, want 1e-4", p.StoragePerMBQuantum)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejectsBadPricing(t *testing.T) {
	if err := (Pricing{QuantumSeconds: 0}).Validate(); err == nil {
		t.Error("zero quantum accepted")
	}
	if err := (Pricing{QuantumSeconds: 60, VMPerQuantum: -1}).Validate(); err == nil {
		t.Error("negative VM price accepted")
	}
}

func TestQuantaRoundsUp(t *testing.T) {
	p := DefaultPricing()
	cases := []struct {
		seconds float64
		want    int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {59.9, 1}, {60, 1}, {60.1, 2}, {120, 2}, {121, 3},
	}
	for _, c := range cases {
		if got := p.Quanta(c.seconds); got != c.want {
			t.Errorf("Quanta(%g) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

func TestStorageCost(t *testing.T) {
	p := DefaultPricing()
	// 100 MB for 2 quanta at 1e-4 $/MB/q = $0.02.
	if got := p.StorageCost(100, 2); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("StorageCost(100,2) = %g, want 0.02", got)
	}
	if got := p.StorageCost(-1, 2); got != 0 {
		t.Errorf("StorageCost(-1,2) = %g, want 0", got)
	}
}

func TestQuantaProperty(t *testing.T) {
	p := DefaultPricing()
	f := func(s float64) bool {
		s = math.Abs(s)
		if math.IsInf(s, 0) || math.IsNaN(s) || s > 1e12 {
			return true
		}
		q := p.Quanta(s)
		// Covering property: q quanta cover s, q-1 do not.
		if float64(q)*p.QuantumSeconds < s-1e-6 {
			return false
		}
		if q > 0 && float64(q-1)*p.QuantumSeconds >= s+1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultSpec(t *testing.T) {
	s := DefaultSpec()
	if s.CPUs != 1 {
		t.Errorf("CPUs = %d, want 1", s.CPUs)
	}
	if s.DiskMB != 100*1024 {
		t.Errorf("DiskMB = %g, want 102400", s.DiskMB)
	}
	// 125 MB over 1 Gbps (125 MB/s) takes 1 s.
	if got := s.TransferSeconds(125); math.Abs(got-1) > 1e-9 {
		t.Errorf("TransferSeconds(125) = %g, want 1", got)
	}
	if got := s.TransferSeconds(-1); got != 0 {
		t.Errorf("TransferSeconds(-1) = %g, want 0", got)
	}
}
