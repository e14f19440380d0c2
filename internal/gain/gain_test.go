package gain

import (
	"math"
	"testing"
	"testing/quick"

	"idxflow/internal/cloud"
)

func params() Params {
	return Params{Alpha: 0.5, FadeD: 60, WindowW: 0, Pricing: cloud.DefaultPricing()}
}

func TestFade(t *testing.T) {
	p := params()
	if got := p.Fade(0); got != 1 {
		t.Errorf("Fade(0) = %g, want 1", got)
	}
	if got := p.Fade(-5); got != 1 {
		t.Errorf("Fade(-5) = %g, want 1 (running/queued)", got)
	}
	if got := p.Fade(60); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Errorf("Fade(60) = %g, want e^-1", got)
	}
	// Monotone decreasing.
	if p.Fade(10) <= p.Fade(20) {
		t.Error("Fade not decreasing")
	}
	// D <= 0 means instant fading.
	p0 := Params{FadeD: 0}
	if got := p0.Fade(5); got != 0 {
		t.Errorf("Fade with D=0 = %g, want 0", got)
	}
}

func TestTimeGainSubtractsBuildTime(t *testing.T) {
	e := NewEvaluator(params())
	c := Costs{Name: "A", BuildQuanta: 2}
	// No history: gt = -ti.
	if got := e.Evaluate(c, 0).TimeGain; got != -2 {
		t.Errorf("TimeGain with no history = %g, want -2", got)
	}
	e.History.Add("A", Record{When: 0, TimeGain: 5})
	if got := e.Evaluate(c, 0).TimeGain; got != 3 {
		t.Errorf("TimeGain = %g, want 3", got)
	}
}

func TestTimeGainFadesWithAge(t *testing.T) {
	p := params()
	e := NewEvaluator(p)
	e.History.Add("A", Record{When: 0, TimeGain: 10})
	c := Costs{Name: "A"}
	// After 60 quanta (3600 s) with D=60: 10·e^-1.
	got := e.Evaluate(c, 3600).TimeGain
	want := 10 * math.Exp(-1)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("TimeGain after 60q = %g, want %g", got, want)
	}
	// Records in the future (queued) are unfaded.
	e2 := NewEvaluator(p)
	e2.History.Add("A", Record{When: 100, TimeGain: 10})
	if got := e2.Evaluate(c, 0).TimeGain; got != 10 {
		t.Errorf("queued record gain = %g, want 10", got)
	}
}

func TestWindowExcludesOldRecords(t *testing.T) {
	p := params()
	p.WindowW = 2 // quanta
	e := NewEvaluator(p)
	e.History.Add("A", Record{When: 0, TimeGain: 10})
	c := Costs{Name: "A"}
	if got := e.Evaluate(c, 60).TimeGain; got <= 0 {
		t.Errorf("record at 1q ago with W=2 should count, got %g", got)
	}
	if got := e.Evaluate(c, 300).TimeGain; got != 0 {
		t.Errorf("record at 5q ago with W=2 should be excluded, gt = %g, want 0", got)
	}
}

func TestMoneyGainIncludesStorageAndBuild(t *testing.T) {
	p := params()
	p.WindowW = 2
	e := NewEvaluator(p)
	c := Costs{Name: "B", BuildMoneyQuanta: 1, SizeMB: 500}
	// No history: gm = -(Mc*1 + 500MB * 2q * 1e-4) = -(0.1 + 0.1) = -0.2.
	got := e.Evaluate(c, 0).MoneyGain
	if math.Abs(got+0.2) > 1e-12 {
		t.Errorf("MoneyGain = %g, want -0.2", got)
	}
	e.History.Add("B", Record{When: 0, MoneyGain: 5})
	// 5 quanta * $0.1 = $0.5 gain.
	got = e.Evaluate(c, 0).MoneyGain
	if math.Abs(got-0.3) > 1e-12 {
		t.Errorf("MoneyGain with history = %g, want 0.3", got)
	}
}

func TestGainWeighting(t *testing.T) {
	p := params()
	p.Alpha = 1 // time only
	e := NewEvaluator(p)
	e.History.Add("A", Record{When: 0, TimeGain: 4, MoneyGain: 100})
	c := Costs{Name: "A"}
	want := p.Pricing.VMPerQuantum * 4
	if got := e.Gain(c, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("Gain with alpha=1 = %g, want %g", got, want)
	}
	p.Alpha = 0 // money only
	e2 := NewEvaluator(p)
	e2.History.Add("A", Record{When: 0, TimeGain: 100, MoneyGain: 4})
	if got := e2.Gain(c, 0); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Gain with alpha=0 = %g, want 0.4", got)
	}
}

func TestBeneficialRequiresBothPositive(t *testing.T) {
	e := NewEvaluator(params())
	e.History.Add("A", Record{When: 0, TimeGain: 5, MoneyGain: -1})
	if e.Beneficial(Costs{Name: "A"}, 0) {
		t.Error("index with negative money gain reported beneficial")
	}
	e.History.Add("B", Record{When: 0, TimeGain: 5, MoneyGain: 5})
	if !e.Beneficial(Costs{Name: "B"}, 0) {
		t.Error("index with both gains positive not beneficial")
	}
}

func TestRankFiltersAndSorts(t *testing.T) {
	e := NewEvaluator(params())
	e.History.Add("hi", Record{When: 0, TimeGain: 10, MoneyGain: 10})
	e.History.Add("lo", Record{When: 0, TimeGain: 1, MoneyGain: 1})
	e.History.Add("bad", Record{When: 0, TimeGain: -5, MoneyGain: 5})
	ranked := e.Rank([]Costs{{Name: "lo"}, {Name: "bad"}, {Name: "hi"}}, 0)
	if len(ranked) != 2 {
		t.Fatalf("ranked %d indexes, want 2", len(ranked))
	}
	if ranked[0].Costs.Name != "hi" || ranked[1].Costs.Name != "lo" {
		t.Errorf("order = %s, %s; want hi, lo", ranked[0].Costs.Name, ranked[1].Costs.Name)
	}
}

func TestNonBeneficial(t *testing.T) {
	e := NewEvaluator(params())
	e.History.Add("keep", Record{When: 0, TimeGain: 5, MoneyGain: 5})
	// "mixed" has positive time gain but negative money gain: kept
	// (deletion needs both <= 0 per Algorithm 1).
	e.History.Add("mixed", Record{When: 0, TimeGain: 5, MoneyGain: -9999})
	dead := Costs{Name: "dead", BuildQuanta: 1, BuildMoneyQuanta: 1}
	del := e.NonBeneficial([]Costs{{Name: "keep"}, {Name: "mixed"}, dead}, 0)
	if len(del) != 1 || del[0].Costs != dead {
		t.Fatalf("NonBeneficial = %+v, want [dead]", del)
	}
	// The gains that justified the deletion are the evaluator's own.
	if got, want := del[0], e.Evaluate(dead, 0); got != want {
		t.Errorf("dead carries %+v, evaluated %+v", got, want)
	}
}

// TestGainMonotoneDecayProperty: with no new dataflows, an index's gain
// never increases over time (the decay of Fig. 3 after the last use).
func TestGainMonotoneDecayProperty(t *testing.T) {
	e := NewEvaluator(params())
	e.History.Add("A", Record{When: 0, TimeGain: 7, MoneyGain: 9})
	c := Costs{Name: "A", BuildQuanta: 0.5, BuildMoneyQuanta: 0.5, SizeMB: 100}
	f := func(a, b float64) bool {
		t1 := math.Abs(a)
		t2 := math.Abs(b)
		if math.IsNaN(t1) || math.IsNaN(t2) || math.IsInf(t1, 0) || math.IsInf(t2, 0) || t1 > 1e9 || t2 > 1e9 {
			return true
		}
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return e.Gain(c, t2) <= e.Gain(c, t1)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFig3Shape reproduces the worked example of Table 2 / Fig. 3: index B
// is not beneficial at t=10, becomes beneficial by t=30 as dataflows
// accumulate, and eventually stops being beneficial as the gain fades.
func TestFig3Shape(t *testing.T) {
	p := params() // alpha=0.5, D=60, like the example
	p.WindowW = 0 // unbounded history, like the example
	e := NewEvaluator(p)
	q := p.Pricing.QuantumSeconds
	// Table 2, index B (500 MB): dataflows at quanta 10, 30, 50.
	e.History.Add("B", Record{When: 10 * q, TimeGain: 1, MoneyGain: 3})
	e.History.Add("B", Record{When: 30 * q, TimeGain: 2, MoneyGain: 5})
	e.History.Add("B", Record{When: 50 * q, TimeGain: 3, MoneyGain: 8})
	cB := Costs{Name: "B", BuildQuanta: 1.5, BuildMoneyQuanta: 1.5, SizeMB: 500}

	atQ := func(tq float64) bool { return e.Beneficial(cB, tq*q) }
	if !atQ(30) {
		t.Error("B not beneficial at t=30, want beneficial")
	}
	if !atQ(60) {
		t.Error("B not beneficial at t=60")
	}
	// Long after the last dataflow the gain has faded away.
	if atQ(500) {
		t.Error("B still beneficial at t=500, want faded")
	}
}
