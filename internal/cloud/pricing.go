// Package cloud models the IaaS environment of §3 of the paper: homogeneous
// containers (VMs) charged per time quantum, a persistent storage service
// charged per MB per quantum, and a flat network. The storage service is a
// billing meter only: what is stored is the catalog's record (package
// data), and the meter accrues at the footprint its caller passes.
package cloud

import (
	"fmt"
	"math"
)

// Pricing is the provider's pricing policy. The model is pluggable (§3,
// Cloud Model): any policy is expressed through these three knobs.
type Pricing struct {
	// QuantumSeconds is Q, the billing quantum in seconds (Table 3: 60 s).
	QuantumSeconds float64
	// VMPerQuantum is Mc, the price of one container for one quantum
	// (Table 3: $0.1).
	VMPerQuantum float64
	// StoragePerMBQuantum is Mst, the price of storing one MB for one
	// quantum (Table 3: $1e-4).
	StoragePerMBQuantum float64
}

// DefaultPricing returns the experiment parameters of Table 3.
func DefaultPricing() Pricing {
	return Pricing{
		QuantumSeconds:      60,
		VMPerQuantum:        0.1,
		StoragePerMBQuantum: 1e-4,
	}
}

// Validate reports an error for non-positive quantum or negative prices.
func (p Pricing) Validate() error {
	if p.QuantumSeconds <= 0 {
		return fmt.Errorf("cloud: quantum must be positive, got %g", p.QuantumSeconds)
	}
	if p.VMPerQuantum < 0 || p.StoragePerMBQuantum < 0 {
		return fmt.Errorf("cloud: negative price (vm=%g, storage=%g)", p.VMPerQuantum, p.StoragePerMBQuantum)
	}
	return nil
}

// Quanta returns the number of whole quanta needed to cover d seconds:
// resources are prepaid for whole quanta (§3), so this rounds up. Zero
// duration costs zero quanta. The billing wall tolerates float noise: a
// duration that is a whole number of quanta up to rounding error (e.g. the
// float k*Q, whose quotient by Q can land just above k) must charge k
// quanta, not k+1 — callers bill durations they derived from quantum
// arithmetic, and double rounding must never invent a phantom quantum.
func (p Pricing) Quanta(seconds float64) int {
	if seconds <= 0 {
		return 0
	}
	return int(math.Ceil(seconds/p.QuantumSeconds - 1e-9))
}

// StorageCost returns the money charged for storing sizeMB for the given
// number of (possibly fractional) quanta: stp(idx, p, W) = W * size * Mst.
func (p Pricing) StorageCost(sizeMB, quanta float64) float64 {
	if sizeMB <= 0 || quanta <= 0 {
		return 0
	}
	return sizeMB * quanta * p.StoragePerMBQuantum
}

// Spec is the fixed capacity of one homogeneous container (§3): the paper's
// experiments use one CPU, one disk of 100 GB at 250 MB/s (typical SSD), and
// a 1 Gbps network (§6.1).
type Spec struct {
	CPUs     int
	MemoryMB float64
	DiskMB   float64
	// DiskMBps is the local disk bandwidth in MB/s.
	DiskMBps float64
	// NetMBps is the network bandwidth to the storage service in MB/s.
	NetMBps float64
}

// DefaultSpec returns the container capacity used in §6.1.
func DefaultSpec() Spec {
	return Spec{
		CPUs:     1,
		MemoryMB: 8 * 1024,
		DiskMB:   100 * 1024, // 100 GB
		DiskMBps: 250,        // typical SSD
		NetMBps:  1000.0 / 8, // 1 Gbps = 125 MB/s
	}
}

// VMType describes one container type of a heterogeneous pool — the §7
// future-work extension ("the scheduler can consider slots at different VM
// types", §3). A homogeneous deployment is the single default type.
type VMType struct {
	Name string
	Spec Spec
	// PricePerQuantum replaces Pricing.VMPerQuantum for containers of
	// this type.
	PricePerQuantum float64
	// SpeedFactor divides operator runtimes on this type (1 = baseline;
	// 2 = twice as fast).
	SpeedFactor float64
}

// DefaultVMTypes returns a typical two-tier pool: the baseline type of
// Table 3 and a double-speed type priced slightly superlinearly, as cloud
// providers do.
func DefaultVMTypes() []VMType {
	return []VMType{
		{Name: "small", Spec: DefaultSpec(), PricePerQuantum: 0.1, SpeedFactor: 1},
		{Name: "large", Spec: largeSpec(), PricePerQuantum: 0.22, SpeedFactor: 2},
	}
}

func largeSpec() Spec {
	s := DefaultSpec()
	s.CPUs = 2
	s.MemoryMB *= 2
	s.NetMBps *= 2
	return s
}

// TransferSeconds returns the time to move sizeMB over the container's
// network link.
func (s Spec) TransferSeconds(sizeMB float64) float64 {
	if sizeMB <= 0 || s.NetMBps <= 0 {
		return 0
	}
	return sizeMB / s.NetMBps
}
