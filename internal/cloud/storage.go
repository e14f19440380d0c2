package cloud

import "idxflow/internal/telemetry"

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

	// Telemetry handles, wired by Instrument; nil handles are no-ops.
	costCounter     *telemetry.Counter
	transferCounter *telemetry.Counter
	sizeGauge       *telemetry.Gauge
	filesGauge      *telemetry.Gauge
}

// NewStorage returns a meter with nothing accrued, billed under p.
func NewStorage(p Pricing) *Storage {
	return &Storage{pricing: p}
}

// Instrument registers the storage service's gauges and counters with the
// registry: accrued cost, bytes transferred, and the current footprint.
func (s *Storage) Instrument(reg *telemetry.Registry) *Storage {
	s.costCounter = reg.Counter("idxflow_storage_cost_dollars_total",
		"Cumulative storage-service cost accrued, in dollars.")
	s.transferCounter = reg.Counter("idxflow_storage_transferred_mb_total",
		"Cumulative MB moved in and out of the storage service.")
	s.sizeGauge = reg.Gauge("idxflow_storage_mb",
		"Bytes currently held in the storage service, in MB.")
	s.filesGauge = reg.Gauge("idxflow_storage_files",
		"Files currently held in the storage service.")
	return s
}

// Upload counts a file of sizeMB written to the storage service as a
// transfer.
func (s *Storage) Upload(sizeMB float64) { s.transferCounter.Add(sizeMB) }

// Advance accrues storage cost from the last accounted time up to now
// (seconds since service start) at a footprint of footprintMB held in files
// files, sets the footprint gauges to them, and returns the total accrued
// cost so far. The whole interval is charged at footprintMB: the meter keeps
// no history of what was stored when. A now at or before the last accounted
// time accrues nothing.
func (s *Storage) Advance(nowSeconds, footprintMB float64, files int) float64 {
	if nowSeconds > s.lastQuantum {
		quanta := (nowSeconds - s.lastQuantum) / s.pricing.QuantumSeconds
		delta := s.pricing.StorageCost(footprintMB, quanta)
		s.costAccrued += delta
		s.costCounter.Add(delta)
		s.lastQuantum = nowSeconds
	}
	s.sizeGauge.Set(footprintMB)
	s.filesGauge.Set(float64(files))
	return s.costAccrued
}

// CostAccrued returns the storage cost accrued so far without advancing.
func (s *Storage) CostAccrued() float64 { return s.costAccrued }
