// Package gain implements the index-usefulness model of §4 of the paper:
// the time gain gt (Eq. 5), the money gain gm (Eq. 4), the weighted gain g
// (Eq. 3) with the exponential fading function dc(t) = e^(-t/D), the
// beneficial test of §5.1 and the two-dimensional ranking of Fig. 4.
package gain

import (
	"math"
	"sort"

	"idxflow/internal/cloud"
	"idxflow/internal/provenance"
	"idxflow/internal/telemetry"
)

// Params are the tuning knobs of the gain model.
type Params struct {
	// Alpha is α ∈ [0,1]: how much a time quantum is valued against money.
	// Table 3 uses 0.5.
	Alpha float64
	// FadeD is D, the fading controller in quanta (Table 3 uses 1; the
	// worked example of Fig. 3 uses 60). Larger D makes historical
	// dataflows matter longer.
	FadeD float64
	// WindowW is W, the history window in quanta: only dataflows executed
	// within [t-W, t] contribute gain, and storage cost is charged for W
	// quanta ahead. Zero or negative means unbounded history.
	WindowW float64
	// Pricing supplies Mc and Mst.
	Pricing cloud.Pricing
}

// DefaultParams returns the Table 3 configuration.
func DefaultParams() Params {
	return Params{
		Alpha:   0.5,
		FadeD:   1,
		WindowW: 2,
		Pricing: cloud.DefaultPricing(),
	}
}

// Fade returns dc(t) = e^(-t/D) for t quanta since a dataflow executed
// (§4). Dataflows currently running or queued use t = 0, i.e. weight 1.
func (p Params) Fade(quantaSince float64) float64 {
	if quantaSince <= 0 {
		return 1
	}
	if p.FadeD <= 0 {
		return 0
	}
	return math.Exp(-quantaSince / p.FadeD)
}

// Record is one historical (or currently running) dataflow's use of an
// index: the per-dataflow gains gtd and gmd, both in quanta.
type Record struct {
	// When is the execution time point of the dataflow in seconds.
	// A When >= now is treated as running/queued (no fading, always in
	// window).
	When float64
	// TimeGain is gtd(idx, d): the dataflow runtime saved by the index,
	// in quanta.
	TimeGain float64
	// MoneyGain is gmd(idx, d): the monetary saving in quanta of VM time
	// (it already accounts for the cost of reading the index from the
	// storage service, §4).
	MoneyGain float64
}

// Costs are the per-index cost terms of Eq. 4 and 5.
type Costs struct {
	// Name identifies the index.
	Name string
	// BuildQuanta is ti(idx): the remaining time to build the index, in
	// quanta.
	BuildQuanta float64
	// BuildMoneyQuanta is mi(idx): the monetary cost of building, in
	// quanta of VM time.
	BuildMoneyQuanta float64
	// SizeMB is the index footprint used for the storage-cost term.
	SizeMB float64
}

// History accumulates the per-index records of issued dataflows (the Hd
// list of §3 restricted to what the gain model needs). Evaluator.Record is
// the appending entry point that keeps it windowed.
type History struct {
	recs map[string][]Record
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{recs: make(map[string][]Record)}
}

// Add appends a record for the named index without trimming anything.
func (h *History) Add(index string, r Record) {
	h.recs[index] = append(h.recs[index], r)
}

// Records returns the records of the named index (shared slice; do not
// mutate).
func (h *History) Records(index string) []Record { return h.recs[index] }

// LastWhen returns the When of the index's last record, 0 if it has none.
// Evaluator.Record appends and trims only a prefix, so under a clock that
// never moves back this is the last time a dataflow listed the index.
func (h *History) LastWhen(index string) float64 {
	recs := h.recs[index]
	if len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].When
}

// Evaluator computes index gains from history.
type Evaluator struct {
	Params  Params
	History *History
	// FadeOverride, when non-nil, replaces Params.Fade with a per-index
	// fading function — the hook for the learned controller of
	// AdaptiveFader (§7 future work).
	FadeOverride func(index string, quantaSince float64) float64
	// Provenance, when active, receives an index-adopted event per
	// beneficial candidate and an index-rejected event per candidate that
	// failed the test, each carrying the Eq. 2–5 inputs (gt, gm, weighted
	// gain, build cost, window and fading state) that justified it.
	Provenance *provenance.Recorder
	// At, when non-nil, is the cell Rank reads the dataflow its provenance
	// events are attributed to from (nil = unattributed).
	At *provenance.Attribution
	// Ranking activity: candidates evaluated and how many passed the
	// beneficial test. Nil-safe no-ops until Instrument binds them.
	evaluated, beneficial *telemetry.Counter
}

// NewEvaluator returns an evaluator over a fresh history.
func NewEvaluator(p Params) *Evaluator {
	return &Evaluator{Params: p, History: NewHistory()}
}

// Instrument binds the ranking counters in reg and returns e.
func (e *Evaluator) Instrument(reg *telemetry.Registry) *Evaluator {
	e.evaluated = reg.Counter("idxflow_gain_candidates_evaluated_total",
		"Index candidates evaluated by the gain ranking.")
	e.beneficial = reg.Counter("idxflow_gain_beneficial_total",
		"Candidates that passed the beneficial test (gt > 0 and gm > 0).")
	return e
}

// Record appends one dataflow's gains for the index (the Hd update of
// Algorithm 1), first dropping the index's leading records that have left
// the window [r.When−W, r.When]: Eq. 3's δ(d,t) excludes them from every
// evaluation at or after r.When, and the service clock that stamps records
// and evaluations never moves back. Only a prefix is dropped, so a history
// appended out of order is merely trimmed less, and W <= 0 keeps everything.
// Evaluating before the last recorded When is outside the contract: records
// that were still in that earlier window may be gone.
func (e *Evaluator) Record(index string, r Record) {
	recs := e.History.recs[index]
	if w := e.Params.WindowW; w > 0 {
		q := e.Params.Pricing.QuantumSeconds
		drop := 0
		for drop < len(recs) && (r.When-recs[drop].When)/q > w {
			drop++
		}
		recs = recs[drop:]
	}
	e.History.recs[index] = append(recs, r)
}

// fadedSums folds Σ δ(d,t)·dc(δT_d)·gain over the index's records for both
// gain components, computing each record's fading weight once.
func (e *Evaluator) fadedSums(index string, now float64) (sumT, sumM float64) {
	q := e.Params.Pricing.QuantumSeconds
	for _, r := range e.History.Records(index) {
		sinceQuanta := (now - r.When) / q
		if sinceQuanta < 0 {
			sinceQuanta = 0 // running or queued
		}
		if e.Params.WindowW > 0 && sinceQuanta > e.Params.WindowW {
			continue // outside [t-W, t]
		}
		var f float64
		if e.FadeOverride != nil {
			f = e.FadeOverride(index, sinceQuanta)
		} else {
			f = e.Params.Fade(sinceQuanta)
		}
		sumT += f * r.TimeGain
		sumM += f * r.MoneyGain
	}
	return sumT, sumM
}

// Ranked is one index with its gains, as placed in the two-dimensional
// space of Fig. 4.
type Ranked struct {
	Costs Costs
	// TimeGain is gt(idx, t) in quanta (Eq. 5), MoneyGain gm(idx, t) in
	// dollars (Eq. 4) and Gain their weighting g(idx, t) (Eq. 3).
	TimeGain  float64
	MoneyGain float64
	Gain      float64
}

// Evaluate places index c in the space of Fig. 4 at time now, from one walk
// over its records:
//
//	gt = Σ δ(d_i,t)·dc(δT)·gtd(idx, d_i) − ti(idx)
//	gm = Σ δ(d_i,t)·dc(δT)·Mc·gmd(idx, d_i) − (Mc·mi(idx) + st(idx, W))
//	g  = α·Mc·gt + (1−α)·gm.
func (e *Evaluator) Evaluate(c Costs, now float64) Ranked {
	sumT, sumM := e.fadedSums(c.Name, now)
	mc := e.Params.Pricing.VMPerQuantum
	sum := sumM * mc
	w := e.Params.WindowW
	if w <= 0 {
		w = 1
	}
	storage := e.Params.Pricing.StorageCost(c.SizeMB, w)
	gt, gm := sumT-c.BuildQuanta, sum-(mc*c.BuildMoneyQuanta+storage)
	return Ranked{Costs: c, TimeGain: gt, MoneyGain: gm, Gain: e.Params.Alpha*mc*gt + (1-e.Params.Alpha)*gm}
}

// Gain returns the weighted gain g(idx, t) of Eq. 3.
func (e *Evaluator) Gain(c Costs, now float64) float64 { return e.Evaluate(c, now).Gain }

// Beneficial reports whether the index is beneficial at time now: both
// gt > 0 and gm > 0 (§5.1).
func (e *Evaluator) Beneficial(c Costs, now float64) bool {
	r := e.Evaluate(c, now)
	return r.TimeGain > 0 && r.MoneyGain > 0
}

// Rank evaluates all candidate indexes at time now, filters to the
// beneficial ones, and sorts them by descending weighted gain (the
// rank2Dspace step of Algorithm 1).
func (e *Evaluator) Rank(candidates []Costs, now float64) []Ranked {
	recording := e.Provenance.Active()
	flow := e.At.Get().Flow
	var out []Ranked
	for _, c := range candidates {
		r := e.Evaluate(c, now)
		if r.TimeGain <= 0 || r.MoneyGain <= 0 {
			if recording {
				e.Provenance.Append(provenance.Event{
					Kind: provenance.KindIndexRejected, Flow: flow, T: now,
					Name: c.Name, TimeGain: r.TimeGain, MoneyGain: r.MoneyGain,
					BuildQuanta: c.BuildQuanta, SizeMB: c.SizeMB,
					FadeD: e.Params.FadeD, WindowW: e.Params.WindowW,
					Records: len(e.History.Records(c.Name)),
				})
			}
			continue
		}
		out = append(out, r)
		if recording {
			e.Provenance.Append(provenance.Event{
				Kind: provenance.KindIndexAdopted, Flow: flow, T: now,
				Name: c.Name, TimeGain: r.TimeGain, MoneyGain: r.MoneyGain, Gain: r.Gain,
				BuildQuanta: c.BuildQuanta, SizeMB: c.SizeMB,
				FadeD: e.Params.FadeD, WindowW: e.Params.WindowW,
				Records: len(e.History.Records(c.Name)),
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Gain != out[j].Gain {
			return out[i].Gain > out[j].Gain
		}
		return out[i].Costs.Name < out[j].Costs.Name
	})
	e.evaluated.Add(float64(len(candidates)))
	e.beneficial.Add(float64(len(out)))
	return out
}

// NonBeneficial returns the candidates whose gains are both non-positive at
// time now, with those gains, in name order — the deletion test of
// Algorithm 1 (lines 13-19: indexes with gt <= 0 and gm <= 0 are deleted).
func (e *Evaluator) NonBeneficial(candidates []Costs, now float64) []Ranked {
	var out []Ranked
	for _, c := range candidates {
		if r := e.Evaluate(c, now); r.TimeGain <= 0 && r.MoneyGain <= 0 {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Costs.Name < out[j].Costs.Name })
	return out
}
