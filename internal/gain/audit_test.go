package gain_test

// External-package wiring of the invariant auditor (internal/check,
// DESIGN.md §8): the Eq. 2-5 gain model is re-derived independently from
// the raw update history on generated streams, so the evaluator (its single
// walk, the history trimmed at Record) can never drift from the paper's
// definitions unnoticed.

import (
	"math"
	"testing"

	"idxflow/internal/check"
	"idxflow/internal/gain"
)

// feed populates an evaluator's history with generated update streams, one
// per candidate.
func feed(e *gain.Evaluator, cands []gain.Costs, n int, horizon, seed int64) {
	for i, c := range cands {
		for _, rec := range check.UpdateStream(n, float64(horizon), seed+int64(i)) {
			e.History.Add(c.Name, rec)
		}
	}
}

func TestAuditDefaultEvaluator(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		p := gain.DefaultParams()
		pricing := check.Pricing(seed)
		e := gain.NewEvaluator(p, pricing)
		cands := check.CostGrid(6, seed+30)
		horizon := int64(60 * pricing.QuantumSeconds)
		feed(e, cands, 10, horizon, seed)
		for _, now := range []float64{0, float64(horizon) / 4, float64(horizon)} {
			if err := check.AuditGain(e, cands, now); err != nil {
				t.Errorf("seed %d now=%g: %v", seed, now, err)
			}
		}
	}
}

// TestAuditParamSweep covers the parameter corners the default hides:
// alpha at both extremes (time-only and money-only weighting), a hard
// fading cutoff (FadeD = 0) and an unwindowed history (WindowW = 0).
func TestAuditParamSweep(t *testing.T) {
	for _, tc := range []struct {
		name        string
		alpha, d, w float64
	}{
		{"time-only alpha", 1, 2, 8},
		{"money-only alpha", 0, 2, 8},
		{"hard fade cutoff", 0.5, 0, 8},
		{"unwindowed", 0.5, 4, 0},
		{"tight window", 0.5, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := gain.Params{Alpha: tc.alpha, FadeD: tc.d, WindowW: tc.w}
			pricing := check.Pricing(5)
			e := gain.NewEvaluator(p, pricing)
			cands := check.CostGrid(5, 77)
			horizon := int64(30 * pricing.QuantumSeconds)
			feed(e, cands, 8, horizon, 9)
			if err := check.AuditGain(e, cands, float64(horizon)/2); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAuditAdaptiveFadeOverride audits an evaluator whose fading is the
// learned per-index controller of §7: the auditor recomputes gains through
// the same override, so the adaptive path satisfies the Eq. 2-5 identities
// with its own dc(t), not the global one.
func TestAuditAdaptiveFadeOverride(t *testing.T) {
	p := gain.DefaultParams()
	pricing := check.Pricing(3)
	e := gain.NewEvaluator(p, pricing)
	cands := check.CostGrid(6, 41)
	horizon := int64(50 * pricing.QuantumSeconds)
	feed(e, cands, 10, horizon, 13)

	fader := gain.NewAdaptiveFader(p.FadeD)
	// Drive the controller off its base: idx00 faded too fast (deleted,
	// then requested again), idx01 too slowly (long idle).
	fader.ObserveDeleted(cands[0].Name, 10)
	fader.ObserveRequested(cands[0].Name, 11)
	fader.ObserveIdle(cands[1].Name, 100*p.FadeD)
	if fader.D(cands[0].Name) == fader.D(cands[1].Name) {
		t.Fatal("observations did not separate the per-index controllers")
	}
	e.FadeOverride = fader.FadeFor

	for _, now := range []float64{0, float64(horizon) / 3, float64(horizon)} {
		if err := check.AuditGain(e, cands, now); err != nil {
			t.Errorf("now=%g: %v", now, err)
		}
	}
}

// TestAuditAfterTrim: a history appended through Evaluator.Record has let
// go of what the window can no longer see, and the audited identities must
// hold over what remains exactly as over the full stream.
func TestAuditAfterTrim(t *testing.T) {
	p := gain.DefaultParams()
	p.WindowW = 4
	pricing := check.Pricing(8)
	trimmed, full := gain.NewEvaluator(p, pricing), gain.NewEvaluator(p, pricing)
	cands := check.CostGrid(4, 19)
	horizon := 40 * pricing.QuantumSeconds
	var now float64
	kept, fed := 0, 0
	for i, c := range cands {
		for _, rec := range check.UpdateStream(12, horizon, 23+int64(i)) {
			trimmed.Record(c.Name, rec)
			full.History.Add(c.Name, rec)
			now = math.Max(now, rec.When)
			fed++
		}
		kept += len(trimmed.History.Records(c.Name))
	}
	if kept >= fed {
		t.Fatalf("Record retained %d of %d records; the stream never left the window", kept, fed)
	}
	for _, at := range []float64{now, now + horizon/10} {
		if err := check.AuditGain(full, cands, at); err != nil {
			t.Fatalf("untrimmed at %g: %v", at, err)
		}
		if err := check.AuditGain(trimmed, cands, at); err != nil {
			t.Errorf("trimmed at %g: %v", at, err)
		}
	}
}
