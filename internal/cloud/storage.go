package cloud

// Storage is the billing meter of the cloud storage service (§3): index
// partitions are files charged per MB per quantum, "by counting the number
// of bytes transferred and charging appropriately over time" (§6.1). It
// holds no file list; the caller passes the footprint it accrues at.
type Storage struct {
	// costAccrued accumulates storage cost as Advance is called.
	costAccrued float64
	// lastQuantum is the quantum timestamp up to which cost was accrued.
	lastQuantum float64
	pricing     Pricing
}

// NewStorage returns a meter with nothing accrued, billed under p.
func NewStorage(p Pricing) *Storage {
	return &Storage{pricing: p}
}

// Advance accrues storage cost from the last accounted time up to now
// (seconds since service start) at a footprint of footprintMB and returns
// the cost it accrued. The whole interval is charged at footprintMB: the
// meter keeps no history of what was stored when. A now at or before the
// last accounted time accrues nothing.
func (s *Storage) Advance(nowSeconds, footprintMB float64) float64 {
	if nowSeconds <= s.lastQuantum {
		return 0
	}
	quanta := (nowSeconds - s.lastQuantum) / s.pricing.QuantumSeconds
	delta := s.pricing.StorageCost(footprintMB, quanta)
	s.costAccrued += delta
	s.lastQuantum = nowSeconds
	return delta
}

// CostAccrued returns the storage cost accrued so far without advancing.
func (s *Storage) CostAccrued() float64 { return s.costAccrued }
