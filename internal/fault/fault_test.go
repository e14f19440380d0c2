package fault

import (
	"math"
	"reflect"
	"testing"
)

func TestNewSortsAndSequences(t *testing.T) {
	p := New(
		Event{Kind: StorageError, At: 30, Container: 1, Retries: 2},
		Event{Kind: ContainerCrash, At: 10, Container: 0},
		Event{Kind: Straggler, At: 20, Container: 2, SlowFactor: 2},
	)
	if len(p.Events) != 3 {
		t.Fatalf("len = %d, want 3", len(p.Events))
	}
	for i, e := range p.Events {
		if e.Seq != i {
			t.Errorf("event %d has Seq %d", i, e.Seq)
		}
		if i > 0 && e.At < p.Events[i-1].At {
			t.Errorf("events out of order: %g after %g", e.At, p.Events[i-1].At)
		}
	}
	if p.Events[0].Kind != ContainerCrash {
		t.Errorf("first event = %v, want the crash at t=10", p.Events[0])
	}
}

func TestKillsContainer(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		want bool
	}{
		{ContainerCrash, true}, {SpotRevocation, true},
		{StorageError, false}, {Straggler, false},
	} {
		if got := (Event{Kind: tc.kind}).KillsContainer(); got != tc.want {
			t.Errorf("%v.KillsContainer() = %v, want %v", tc.kind, got, tc.want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		ContainerCrash: "crash", SpotRevocation: "revocation",
		StorageError: "storage-error", Straggler: "straggler",
	}
	for k := ContainerCrash; k <= Straggler; k++ {
		if k.String() != want[k] {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want[k])
		}
	}
	if got := Kind(99).String(); got != "fault(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestFromShiftsAndFilters(t *testing.T) {
	p := New(
		Event{Kind: ContainerCrash, At: 100, Container: 0},
		Event{Kind: Straggler, At: 250, Container: 1, SlowFactor: 2},
		Event{Kind: StorageError, At: 400, Container: 2, Retries: 1},
	)
	win := p.From(200)
	if len(win) != 2 {
		t.Fatalf("window = %d events, want 2", len(win))
	}
	if win[0].At != 50 || win[1].At != 200 {
		t.Errorf("shifted times = %g, %g; want 50, 200", win[0].At, win[1].At)
	}
	// The plan itself must be untouched.
	if p.Events[1].At != 250 {
		t.Errorf("From mutated the plan: %g", p.Events[1].At)
	}
	if got := p.From(1000); got != nil {
		t.Errorf("From past the last event = %v, want nil", got)
	}
	var nilPlan *Plan
	if nilPlan.From(0) != nil {
		t.Error("nil plan must behave as empty")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	r := DefaultRates(0.05, 60, 7200)
	a := Generate(r, 7)
	b := Generate(r, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same (rates, seed) produced different plans")
	}
	c := Generate(r, 8)
	if reflect.DeepEqual(a, c) && len(a.Events) > 0 {
		t.Error("different seeds produced identical non-empty plans")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("generated plan invalid: %v", err)
	}
}

func TestGenerateRateScaling(t *testing.T) {
	// Expected events over the horizon: total rate * quanta. With rate
	// 0.1/quantum over 600 quanta, expect ~60; allow wide slack for the
	// Poisson draw but reject order-of-magnitude errors.
	r := DefaultRates(0.1, 60, 600*60)
	p := Generate(r, 3)
	if n := len(p.Events); n < 20 || n > 150 {
		t.Errorf("generated %d events, expected around 60", n)
	}
	kinds := make(map[Kind]int)
	for _, e := range p.Events {
		kinds[e.Kind]++
		if e.Container != AnyContainer {
			t.Fatalf("generated event targets container %d, want AnyContainer", e.Container)
		}
	}
	for k := ContainerCrash; k <= Straggler; k++ {
		if kinds[k] == 0 {
			t.Errorf("no %v events generated at this rate", k)
		}
	}
}

func TestGenerateDefaults(t *testing.T) {
	p := Generate(Rates{StorageErrPerQuantum: 0.5, StragglerPerQuantum: 0.5, HorizonSeconds: 3600}, 1)
	for _, e := range p.Events {
		switch e.Kind {
		case StorageError:
			if e.Retries < 1 {
				t.Errorf("storage error with Retries %d", e.Retries)
			}
		case Straggler:
			if e.SlowFactor <= 1 {
				t.Errorf("straggler with SlowFactor %g", e.SlowFactor)
			}
		}
	}
	if len(p.Events) == 0 {
		t.Error("no events despite positive rates")
	}
}

func TestValidate(t *testing.T) {
	if err := New().Validate(); err != nil {
		t.Errorf("empty plan: %v", err)
	}
	bad := &Plan{Events: []Event{{Kind: StorageError, At: 5}}}
	if bad.Validate() == nil {
		t.Error("storage error without retries passed validation")
	}
	bad = &Plan{Events: []Event{{Kind: Straggler, At: 5, SlowFactor: 1}}}
	if bad.Validate() == nil {
		t.Error("straggler with factor 1 passed validation")
	}
	bad = &Plan{Events: []Event{{Kind: ContainerCrash, At: -1}}}
	if bad.Validate() == nil {
		t.Error("negative time passed validation")
	}
	bad = &Plan{Events: []Event{{Kind: ContainerCrash, At: 9}, {Kind: ContainerCrash, At: 3}}}
	if bad.Validate() == nil {
		t.Error("unordered plan passed validation")
	}
	bad = &Plan{Events: []Event{{Kind: Kind(42), At: 1}}}
	if bad.Validate() == nil {
		t.Error("unknown kind passed validation")
	}
}

func TestDefaultRatesSplit(t *testing.T) {
	r := DefaultRates(0.1, 60, 3600)
	sum := r.CrashPerQuantum + r.RevocationPerQuantum + r.StorageErrPerQuantum + r.StragglerPerQuantum
	if math.Abs(sum-0.1) > 1e-12 {
		t.Errorf("kind rates sum to %g, want the combined rate 0.1", sum)
	}
}
