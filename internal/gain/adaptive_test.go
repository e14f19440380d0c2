package gain

import (
	"math"
	"testing"
)

func TestAdaptiveDefaults(t *testing.T) {
	a := NewAdaptiveFader(10)
	if got := a.D("x"); got != 10 {
		t.Errorf("D(unseen) = %g, want base 10", got)
	}
	if a := NewAdaptiveFader(0); a.base != 1 {
		t.Errorf("zero base not defaulted: %g", a.base)
	}
}

func TestAdaptiveGrowsOnPrematureDeletion(t *testing.T) {
	a := NewAdaptiveFader(10)
	a.ObserveDeleted("x", 100)
	a.ObserveRequested("x", 110) // within the regret window (40q)
	if got := a.D("x"); got <= 10 {
		t.Errorf("D after premature deletion = %g, want > 10", got)
	}
}

func TestAdaptiveIgnoresLateRequest(t *testing.T) {
	a := NewAdaptiveFader(10)
	a.ObserveDeleted("x", 100)
	a.ObserveRequested("x", 500) // far beyond the regret window
	if got := a.D("x"); got != 10 {
		t.Errorf("D after late request = %g, want unchanged 10", got)
	}
}

func TestAdaptiveShrinksOnIdleness(t *testing.T) {
	a := NewAdaptiveFader(10)
	a.ObserveIdle("x", 50) // > 3*D
	if got := a.D("x"); got >= 10 {
		t.Errorf("D after idleness = %g, want < 10", got)
	}
	before := a.D("x")
	a.ObserveIdle("x", 10) // not enough idleness
	if got := a.D("x"); got != before {
		t.Errorf("D changed on short idleness: %g -> %g", before, got)
	}
}

func TestAdaptiveClamps(t *testing.T) {
	a := NewAdaptiveFader(10)
	for i := 0; i < 50; i++ {
		a.ObserveDeleted("x", float64(i*10))
		a.ObserveRequested("x", float64(i*10)+1)
	}
	if got := a.D("x"); got != 160 {
		t.Errorf("D = %g, want the max 16*base = 160", got)
	}
	for i := 0; i < 100; i++ {
		a.ObserveIdle("y", 1e9)
	}
	if got := a.D("y"); got != 1.25 {
		t.Errorf("D = %g, want the min base/8 = 1.25", got)
	}
}

func TestFadeForUsesPerIndexD(t *testing.T) {
	a := NewAdaptiveFader(10)
	a.ObserveDeleted("hot", 0)
	a.ObserveRequested("hot", 1) // D grows to 15
	fHot := a.FadeFor("hot", 10)
	fCold := a.FadeFor("cold", 10)
	if fHot <= fCold {
		t.Errorf("larger D should fade slower: hot=%g cold=%g", fHot, fCold)
	}
	if got := a.FadeFor("cold", 0); got != 1 {
		t.Errorf("FadeFor(0) = %g, want 1", got)
	}
	want := math.Exp(-1)
	if got := a.FadeFor("cold", 10); math.Abs(got-want) > 1e-12 {
		t.Errorf("FadeFor(10) with D=10 = %g, want e^-1", got)
	}
}
