package gain

import "math"

// AdaptiveFader learns a per-index fading controller D, the future-work
// direction of §7 ("automatic learning of the index gain fading controller
// to select proper respective values for each index"). The intuition: D
// controls how long an index's historical usefulness persists. If the
// tuner deletes an index and the workload asks for it again shortly after,
// the history faded too fast — D grows. If an index sits unused long past
// its last use while still being kept, the history faded too slowly — D
// shrinks.
//
// AdaptiveFader is a decoration over Params: call D(index) to get the
// per-index controller and feed the tuner's observations through
// ObserveDeleted / ObserveRequested / ObserveIdle.
type AdaptiveFader struct {
	// base is the starting controller for unseen indexes (quanta); the
	// learned values are clamped to [base/8, 16*base].
	base      float64
	perIndex  map[string]float64
	deletedAt map[string]float64
}

// A premature deletion multiplies an index's controller by growFactor,
// prolonged idleness by shrinkFactor. A request within regretWindows
// base controllers of a deletion counts as premature.
const (
	growFactor    = 1.5
	shrinkFactor  = 0.8
	regretWindows = 4
)

// NewAdaptiveFader returns a fader around base (1 when base <= 0).
func NewAdaptiveFader(base float64) *AdaptiveFader {
	if base <= 0 {
		base = 1
	}
	return &AdaptiveFader{
		base:      base,
		perIndex:  make(map[string]float64),
		deletedAt: make(map[string]float64),
	}
}

// D returns the current controller for the named index.
func (a *AdaptiveFader) D(index string) float64 {
	if d, ok := a.perIndex[index]; ok {
		return d
	}
	return a.base
}

func (a *AdaptiveFader) set(index string, d float64) {
	a.perIndex[index] = min(max(d, a.base/8), a.base*16)
}

// ObserveDeleted records that the tuner dropped the index at time
// nowQuanta.
func (a *AdaptiveFader) ObserveDeleted(index string, nowQuanta float64) {
	a.deletedAt[index] = nowQuanta
}

// ObserveRequested records that a dataflow listed the index as useful at
// time nowQuanta. A request shortly after a deletion means the fading was
// too aggressive: D grows.
func (a *AdaptiveFader) ObserveRequested(index string, nowQuanta float64) {
	if del, ok := a.deletedAt[index]; ok {
		if nowQuanta-del <= regretWindows*a.base {
			a.set(index, a.D(index)*growFactor)
		}
		delete(a.deletedAt, index)
	}
}

// ObserveIdle records that the index has been kept for idleQuanta without
// any dataflow using it. Idleness far beyond the controller means the
// fading was too slow: D shrinks.
func (a *AdaptiveFader) ObserveIdle(index string, idleQuanta float64) {
	if idleQuanta > 3*a.D(index) {
		a.set(index, a.D(index)*shrinkFactor)
	}
}

// FadeFor returns dc(t) = e^(-t/D_index) with the learned per-index
// controller.
func (a *AdaptiveFader) FadeFor(index string, quantaSince float64) float64 {
	if quantaSince <= 0 {
		return 1
	}
	d := a.D(index)
	if d <= 0 {
		return 0
	}
	return math.Exp(-quantaSince / d)
}
