package gain

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The windowed history (Evaluator.Record) against a shadow that never trims
// (History.Add): at every evaluation the contract allows — now at or after
// the last recorded When — the two must give the same floats, the same rank
// and the same deletion set, because the records Record drops are exactly
// those Eq. 3's δ(d,t) already excludes.

var threeCosts = []Costs{
	{Name: "A", BuildQuanta: 1, BuildMoneyQuanta: 1, SizeMB: 10},
	{Name: "B", BuildQuanta: 3, BuildMoneyQuanta: 2, SizeMB: 500},
	{Name: "C", SizeMB: 4096},
}

// retained counts the records an evaluator's history holds.
func retained(e *Evaluator) int {
	n := 0
	for _, rs := range e.History.recs {
		n += len(rs)
	}
	return n
}

// sameEvaluation asserts bit-identical gains, rank and deletion set.
func sameEvaluation(t *testing.T, trimmed, full *Evaluator, now float64) {
	t.Helper()
	for _, c := range threeCosts {
		got := trimmed.Evaluate(c, now)
		if want := full.Evaluate(c, now); got != want {
			t.Fatalf("now=%g %s: trimmed %+v, untrimmed %+v", now, c.Name, got, want)
		}
		// An evaluation reads; asking again at the same time repeats it.
		if got != trimmed.Evaluate(c, now) {
			t.Fatalf("now=%g %s: re-evaluation at fixed now drifted", now, c.Name)
		}
	}
	if got, want := rankAt(trimmed, threeCosts, now), rankAt(full, threeCosts, now); !reflect.DeepEqual(got, want) {
		t.Fatalf("now=%g: Rank %+v, untrimmed %+v", now, got, want)
	}
	if got, want := trimmed.NonBeneficial(threeCosts, now), full.NonBeneficial(threeCosts, now); !reflect.DeepEqual(got, want) {
		t.Fatalf("now=%g: NonBeneficial %v, untrimmed %v", now, got, want)
	}
}

func TestTrimmedMatchesUntrimmedRandom(t *testing.T) {
	for _, w := range []float64{0, 2, 10} {
		p := params()
		p.WindowW = w
		q := p.Pricing.QuantumSeconds
		trimmed, full := NewEvaluator(p), NewEvaluator(p)
		rng := rand.New(rand.NewSource(int64(w*10 + 1)))
		now, added := 0.0, 0
		for step := 0; step < 600; step++ {
			switch rng.Intn(5) {
			case 0, 1, 2: // a dataflow records its gains at the clock
				r := Record{When: now, TimeGain: rng.Float64()*10 - 2, MoneyGain: rng.Float64()*6 - 1}
				name := threeCosts[rng.Intn(len(threeCosts))].Name
				trimmed.Record(name, r)
				full.History.Add(name, r)
				added++
			case 3: // the clock advances within a window
				now += rng.Float64() * q
			case 4: // and past one: everything recorded so far expires
				now += (w + 1 + rng.Float64()) * q
			}
			sameEvaluation(t, trimmed, full, now)
		}
		if got := retained(full); got != added {
			t.Fatalf("W=%g: shadow holds %d of %d records", w, got, added)
		}
		switch got := retained(trimmed); {
		case w <= 0 && got != added:
			t.Errorf("W=%g: retained %d of %d records, want all", w, got, added)
		case w > 0 && got >= added/4:
			t.Errorf("W=%g: retained %d of %d records, want a window's worth", w, got, added)
		}
	}
}

// An out-of-order append only limits the trim to the prefix ahead of it: the
// stale record behind an in-window one stays, and the walk skips it.
func TestRecordOutOfOrderTrimsLess(t *testing.T) {
	p := params()
	p.WindowW = 5
	q := p.Pricing.QuantumSeconds
	trimmed, full := NewEvaluator(p), NewEvaluator(p)
	for _, r := range []Record{
		{When: 50 * q, TimeGain: 4, MoneyGain: 2},
		{When: 1 * q, TimeGain: 9, MoneyGain: 9}, // out of order, long expired
		{When: 52 * q, TimeGain: 3, MoneyGain: 1},
	} {
		trimmed.Record("A", r)
		full.History.Add("A", r)
	}
	if got := len(trimmed.History.Records("A")); got != 3 {
		t.Fatalf("retained %d records, want 3 (the in-window head blocks the trim)", got)
	}
	sameEvaluation(t, trimmed, full, 52*q)
	sameEvaluation(t, trimmed, full, 54*q)
	// Once the head itself expires the prefix goes, stale record included.
	late := Record{When: 56 * q, TimeGain: 1, MoneyGain: 1}
	trimmed.Record("A", late)
	full.History.Add("A", late)
	if got := len(trimmed.History.Records("A")); got != 2 {
		t.Fatalf("retained %d records after the head expired, want 2", got)
	}
	sameEvaluation(t, trimmed, full, 56*q)
}

// W <= 0 is the unbounded history of Fig. 3: nothing is ever dropped.
func TestRecordUnboundedWindowKeepsAll(t *testing.T) {
	for _, w := range []float64{0, -1} {
		p := params()
		p.WindowW = w
		e := NewEvaluator(p)
		for i := 0; i < 50; i++ {
			e.Record("A", Record{When: float64(i) * 1e6, TimeGain: 1})
		}
		if got := len(e.History.Records("A")); got != 50 {
			t.Errorf("W=%g: retained %d records, want 50", w, got)
		}
	}
}

// A FadeOverride changes the weights, not the window, so trimming is as
// exact under it; the sums are the override's own.
func TestRecordUnderFadeOverride(t *testing.T) {
	p := params()
	p.WindowW = 3
	q := p.Pricing.QuantumSeconds
	override := func(_ string, since float64) float64 { return 1 / (1 + since) }
	trimmed, full := NewEvaluator(p), NewEvaluator(p)
	trimmed.FadeOverride, full.FadeOverride = override, override
	for i, r := range []Record{
		{When: 0, TimeGain: 8, MoneyGain: 8},
		{When: 10 * q, TimeGain: 6, MoneyGain: 2},
		{When: 11 * q, TimeGain: 3, MoneyGain: 1},
	} {
		trimmed.Record("C", r)
		full.History.Add("C", r)
		sameEvaluation(t, trimmed, full, r.When)
		if got := len(trimmed.History.Records("C")); got != []int{1, 1, 2}[i] {
			t.Fatalf("after record %d: retained %d", i, got)
		}
	}
	// At 12q: 6/(1+2) + 3/(1+1), the expired first record contributing 0.
	if got, want := trimmed.Evaluate(Costs{Name: "C"}, 12*q).TimeGain, 3.5; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("override TimeGain = %g, want %g", got, want)
	}
}

// The contract: an evaluation reads no state but the records, so over an
// untrimmed history (History.Add) time may go backwards and forwards
// freely; over a Record-ed one, now must be at or after the last recorded
// When, and at exactly that bound nothing the window still sees has been
// dropped.
func TestEvaluationTimeContract(t *testing.T) {
	p := params()
	p.WindowW = 4
	q := p.Pricing.QuantumSeconds
	trimmed, full := NewEvaluator(p), NewEvaluator(p)
	for i := 0; i < 10; i++ {
		r := Record{When: float64(i) * q, TimeGain: 1, MoneyGain: 1}
		trimmed.Record("A", r)
		full.History.Add("A", r)
	}
	a := threeCosts[0]
	for _, now := range []float64{15 * q, 5 * q, 20 * q, 5 * q} {
		fresh := NewEvaluator(p)
		for _, r := range full.History.Records("A") {
			fresh.History.Add("A", r)
		}
		if got, want := full.Evaluate(a, now).TimeGain, fresh.Evaluate(a, now).TimeGain; got != want {
			t.Fatalf("now=%g after moving the clock about: %g, fresh evaluator %g", now, got, want)
		}
	}
	sameEvaluation(t, trimmed, full, 9*q) // the last recorded When
	// Before it, the trimmed history has already let go of records that an
	// evaluation back then would still have counted: 5q sees records 1..5
	// untrimmed, but only 5 remains of those (9−4 = 5).
	if got, want := trimmed.Evaluate(a, 5*q).TimeGain, full.Evaluate(a, 5*q).TimeGain; got >= want {
		t.Fatalf("evaluating before the last When: trimmed %g, untrimmed %g; the contract comment is out of date", got, want)
	}
}

var sinkT, sinkM float64

// BenchmarkFadedSumsWindowed walks the history a service actually holds: on
// the benchmark's flow shape (W = 120, D = 10, a flow every 3-5 quanta) an
// index has 2-3 records inside the window and rarely more than 16.
func BenchmarkFadedSumsWindowed(b *testing.B) {
	for _, n := range []int{2, 16} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			p := params()
			p.FadeD, p.WindowW = 10, 120
			e := NewEvaluator(p)
			q := p.Pricing.QuantumSeconds
			for i := 0; i < n; i++ {
				e.Record("A", Record{When: float64(i) * 5 * q, TimeGain: 1, MoneyGain: 1})
			}
			now := float64(n) * 5 * q
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkT, sinkM = e.fadedSums("A", now)
			}
		})
	}
}
