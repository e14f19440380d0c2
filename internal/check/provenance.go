package check

import (
	"math"

	"idxflow/internal/core"
	"idxflow/internal/provenance"
)

// AuditProvenance cross-checks a decision-provenance event log against the
// realized run metrics: every decision the flight recorder claims must
// agree with what the service actually did and charged. Invariants (DESIGN
// §9):
//
//   - prov-complete: the log is unwrapped (first Seq is 0) — a ring that
//     dropped events cannot prove anything about the run.
//   - prov-order: sequence numbers are strictly ascending, and each flow's
//     lifecycle events appear in causal order (admitted < scheduled <
//     settled).
//   - prov-lifecycle: every executed flow has exactly one admission, one
//     skyline choice and one settlement, under its own FlowID and name.
//   - prov-money: per flow, the settled quanta/makespan/waste equal the
//     FlowResult's; summed over flows they equal Metrics.VMQuanta.
//   - prov-builds: per flow, build-committed events equal BuildsCompleted
//     and build-killed events equal BuildsKilled.
//   - prov-pareto: the chosen schedule is not dominated by any recorded
//     Pareto alternative (§5.2 skyline property).
//   - prov-gain-sign: adopted indexes recorded gt > 0 and gm > 0;
//     rejected candidates recorded gt <= 0 or gm <= 0 (§5.1 beneficial
//     test); evicted indexes recorded both <= 0 (Algorithm 1 deletion).
//   - prov-evict: every index a flow deleted has an eviction event, and
//     vice versa.
func AuditProvenance(events []provenance.Event, m core.Metrics) error {
	r := &Report{}
	auditProvenance(r, events, m)
	return r.Err()
}

func auditProvenance(r *Report, events []provenance.Event, m core.Metrics) {
	if len(events) == 0 {
		if len(m.Results) > 0 {
			r.addf("prov-complete", "no events recorded for %d executed flows", len(m.Results))
		}
		return
	}
	if events[0].Seq != 0 {
		r.addf("prov-complete", "log starts at seq %d: ring dropped events, audit is unsound", events[0].Seq)
		return
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			r.addf("prov-order", "seq %d at position %d not ascending after %d",
				events[i].Seq, i, events[i-1].Seq)
		}
	}

	byFlow := make(map[provenance.FlowID][]provenance.Event)
	var settledSum float64
	for _, e := range events {
		byFlow[e.Flow] = append(byFlow[e.Flow], e)
		if e.Kind == provenance.KindMoneySettled {
			settledSum += e.MoneyQuanta
		}
		switch e.Kind {
		case provenance.KindIndexAdopted:
			if e.TimeGain <= 0 || e.MoneyGain <= 0 {
				r.addf("prov-gain-sign", "seq %d adopted %s with gt=%g gm=%g (needs both > 0)",
					e.Seq, e.Name, e.TimeGain, e.MoneyGain)
			}
		case provenance.KindIndexRejected:
			if e.TimeGain > 0 && e.MoneyGain > 0 {
				r.addf("prov-gain-sign", "seq %d rejected %s with gt=%g gm=%g (both positive)",
					e.Seq, e.Name, e.TimeGain, e.MoneyGain)
			}
		case provenance.KindIndexEvicted:
			if e.TimeGain > tightEps || e.MoneyGain > tightEps {
				r.addf("prov-gain-sign", "seq %d evicted %s with gt=%g gm=%g (needs both <= 0)",
					e.Seq, e.Name, e.TimeGain, e.MoneyGain)
			}
		}
	}
	if math.Abs(settledSum-m.VMQuanta) > looseEps*math.Max(1, m.VMQuanta) {
		r.addf("prov-money", "settled quanta sum %g != metrics VMQuanta %g", settledSum, m.VMQuanta)
	}

	for _, res := range m.Results {
		auditFlowEvents(r, res, byFlow[res.FlowID])
	}
}

// auditFlowEvents checks one flow's decision chain against its result.
func auditFlowEvents(r *Report, res core.FlowResult, events []provenance.Event) {
	id := res.FlowID
	if id == 0 {
		r.addf("prov-lifecycle", "flow %q has no FlowID", res.Name)
		return
	}
	var admitted, scheduled, settled []provenance.Event
	committed, killed, evicted := 0, 0, map[string]bool{}
	for _, e := range events {
		switch e.Kind {
		case provenance.KindFlowAdmitted:
			admitted = append(admitted, e)
		case provenance.KindFlowScheduled:
			scheduled = append(scheduled, e)
		case provenance.KindMoneySettled:
			settled = append(settled, e)
		case provenance.KindBuildCommitted:
			committed++
		case provenance.KindBuildKilled:
			killed++
		case provenance.KindIndexEvicted:
			evicted[e.Name] = true
		}
	}
	if len(admitted) != 1 {
		r.addf("prov-lifecycle", "flow %d has %d admission events, want 1", id, len(admitted))
		return
	}
	if admitted[0].Name != res.Name {
		r.addf("prov-lifecycle", "flow %d admitted as %q, result says %q",
			id, admitted[0].Name, res.Name)
	}
	// A flow with zero scheduled operators never reached the scheduler; it
	// has no schedule, settlement or builds to check.
	if res.TotalOps == 0 && res.End == res.Start {
		return
	}
	if len(scheduled) != 1 || len(settled) != 1 {
		r.addf("prov-lifecycle", "flow %d has %d schedule and %d settlement events, want 1 and 1",
			id, len(scheduled), len(settled))
		return
	}
	if !(admitted[0].Seq < scheduled[0].Seq && scheduled[0].Seq < settled[0].Seq) {
		r.addf("prov-order", "flow %d lifecycle out of order: admitted seq %d, scheduled seq %d, settled seq %d",
			id, admitted[0].Seq, scheduled[0].Seq, settled[0].Seq)
	}

	st := settled[0]
	if math.Abs(st.MoneyQuanta-res.MoneyQuanta) > tightEps ||
		math.Abs(st.Makespan-res.Makespan) > tightEps ||
		math.Abs(st.WastedQuanta-res.WastedQuanta) > tightEps {
		r.addf("prov-money", "flow %d settled (money %g, makespan %g, wasted %g) != result (%g, %g, %g)",
			id, st.MoneyQuanta, st.Makespan, st.WastedQuanta,
			res.MoneyQuanta, res.Makespan, res.WastedQuanta)
	}
	if committed != res.BuildsCompleted {
		r.addf("prov-builds", "flow %d has %d build-committed events, result says %d",
			id, committed, res.BuildsCompleted)
	}
	if killed != res.BuildsKilled {
		r.addf("prov-builds", "flow %d has %d build-killed events, result says %d",
			id, killed, res.BuildsKilled)
	}

	sc := scheduled[0]
	for _, alt := range sc.Alts {
		if alt.Makespan <= sc.Makespan+tightEps && alt.MoneyQuanta <= sc.MoneyQuanta+tightEps &&
			(alt.Makespan < sc.Makespan-tightEps || alt.MoneyQuanta < sc.MoneyQuanta-tightEps) {
			r.addf("prov-pareto", "flow %d chose (%.3fs, %.3fq) but alternative (%.3fs, %.3fq) dominates it",
				id, sc.Makespan, sc.MoneyQuanta, alt.Makespan, alt.MoneyQuanta)
		}
	}

	for _, name := range res.Deleted {
		if !evicted[name] {
			r.addf("prov-evict", "flow %d deleted %s without an eviction event", id, name)
		}
		delete(evicted, name)
	}
	for name := range evicted {
		r.addf("prov-evict", "flow %d has an eviction event for %s the result does not list", id, name)
	}
}
