package cloud

import (
	"fmt"
	"sort"

	"idxflow/internal/telemetry"
)

// Storage models the cloud storage service (§3): a flat namespace of files
// charged per MB per quantum, "by counting the number of bytes transferred
// and charging appropriately over time" (§6.1).
type Storage struct {
	files map[string]float64 // path -> size MB
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

// NewStorage returns an empty storage service billed under p.
func NewStorage(p Pricing) *Storage {
	return &Storage{files: make(map[string]float64), pricing: p}
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
	s.syncGauges()
	return s
}

func (s *Storage) syncGauges() {
	if s.sizeGauge == nil && s.filesGauge == nil {
		return // skip the O(files) footprint walk when uninstrumented
	}
	s.sizeGauge.Set(s.TotalMB())
	s.filesGauge.Set(float64(len(s.files)))
}

// Put stores (or replaces) a file of the given size and counts the upload
// as a transfer. Negative sizes are rejected.
func (s *Storage) Put(path string, sizeMB float64) error {
	if sizeMB < 0 {
		return fmt.Errorf("cloud: negative file size %g for %q", sizeMB, path)
	}
	s.files[path] = sizeMB
	s.transferCounter.Add(sizeMB)
	s.syncGauges()
	return nil
}

// Delete removes path and reports whether it existed.
func (s *Storage) Delete(path string) bool {
	if _, ok := s.files[path]; !ok {
		return false
	}
	delete(s.files, path)
	s.syncGauges()
	return true
}

// TotalMB returns the total stored size. The sum runs in sorted path
// order: float addition is not associative, and accrued cost must be
// bit-identical across repeated runs for reproducible experiments.
func (s *Storage) TotalMB() float64 {
	var sum float64
	for _, p := range s.Paths() {
		sum += s.files[p]
	}
	return sum
}

// Len returns the number of stored files.
func (s *Storage) Len() int { return len(s.files) }

// Paths returns all stored paths in sorted order.
func (s *Storage) Paths() []string {
	paths := make([]string, 0, len(s.files))
	for p := range s.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Advance accrues storage cost from the last accounted time up to now
// (seconds since service start) at the current stored size, and returns the
// total accrued cost so far.
func (s *Storage) Advance(nowSeconds float64) float64 {
	if nowSeconds > s.lastQuantum {
		quanta := (nowSeconds - s.lastQuantum) / s.pricing.QuantumSeconds
		delta := s.pricing.StorageCost(s.TotalMB(), quanta)
		s.costAccrued += delta
		s.costCounter.Add(delta)
		s.lastQuantum = nowSeconds
	}
	return s.costAccrued
}

// CostAccrued returns the storage cost accrued so far without advancing.
func (s *Storage) CostAccrued() float64 { return s.costAccrued }
