package provenance

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Explain renders the event log as a per-dataflow narrative: for each
// flow, in causal (Seq) order, what the tuner saw, what it chose, and what
// it cost — the "why did the tuner do X" view behind idxflow-sim -explain.
// Events not attributed to a flow (Flow == 0) are listed at the end.
func Explain(w io.Writer, events []Event) error {
	byFlow := make(map[FlowID][]Event)
	var order []FlowID
	for _, e := range events {
		if _, ok := byFlow[e.Flow]; !ok {
			order = append(order, e.Flow)
		}
		byFlow[e.Flow] = append(byFlow[e.Flow], e)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	bw := &strings.Builder{}
	for _, id := range order {
		if id == 0 {
			continue
		}
		explainFlow(bw, id, byFlow[id])
	}
	if unattributed := byFlow[0]; len(unattributed) > 0 {
		fmt.Fprintf(bw, "unattributed events:\n")
		for _, e := range unattributed {
			fmt.Fprintf(bw, "  [%d] t=%.1fs %s %s\n", e.Seq, e.T, e.Kind, e.Name)
		}
	}
	if bw.Len() == 0 {
		fmt.Fprintln(bw, "no events recorded (run with recording enabled, e.g. idxflow-sim -events log.jsonl -explain)")
	}
	_, err := io.WriteString(w, bw.String())
	return err
}

func explainFlow(w *strings.Builder, id FlowID, events []Event) {
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	for _, e := range events {
		switch e.Kind {
		case KindFlowAdmitted:
			fmt.Fprintf(w, "flow %d %q admitted at t=%.1fs (%d operators)\n", id, e.Name, e.T, e.Count)
		case KindIndexAdopted:
			fmt.Fprintf(w, "  adopt %s: weighted gain %.3f (gt=%.3f, gm=%.3f; build %.1fq, %.0f MB; %d record(s) in window W=%.0fs, fade D=%.0fs)\n",
				e.Name, e.Gain, e.TimeGain, e.MoneyGain, e.BuildQuanta, e.SizeMB, e.Records, e.WindowW, e.FadeD)
		case KindIndexRejected:
			fmt.Fprintf(w, "  reject %s: not beneficial (gt=%.3f, gm=%.3f)\n", e.Name, e.TimeGain, e.MoneyGain)
		case KindFlowScheduled:
			fmt.Fprintf(w, "  schedule: %.1fs / %.1fq on %d container(s)", e.Makespan, e.MoneyQuanta, e.Containers)
			if len(e.Alts) > 0 {
				alts := make([]string, 0, len(e.Alts))
				for _, p := range e.Alts {
					alts = append(alts, fmt.Sprintf("%.1fs/%.1fq", p.Makespan, p.MoneyQuanta))
				}
				fmt.Fprintf(w, "; beat %d Pareto alternative(s): %s", len(e.Alts), strings.Join(alts, ", "))
			}
			fmt.Fprintln(w)
		case KindInterleaved:
			fmt.Fprintf(w, "  interleave: %d placement(s) of %d offered build op(s) across %d skyline schedule(s)\n", e.Count, e.Records, e.Containers)
		case KindBuildPlaced:
			fmt.Fprintf(w, "  build %s part %d placed on container %d [%.1fs, %.1fs)\n", e.Name, e.Part, e.Container, e.Start, e.End)
		case KindBuildCommitted:
			fmt.Fprintf(w, "  build %s part %d committed\n", e.Name, e.Part)
		case KindBuildKilled:
			// Kills emitted by the executor identify the operator (Op), not
			// the index name the service-level events carry.
			label := e.Name
			if label == "" {
				label = e.Op
			}
			fmt.Fprintf(w, "  build %s killed on container %d (%s)\n", label, e.Container, e.Reason)
		case KindIndexEvicted:
			fmt.Fprintf(w, "  evict %s: no longer beneficial (gt=%.3f, gm=%.3f)\n", e.Name, e.TimeGain, e.MoneyGain)
		case KindIndexInvalidated:
			fmt.Fprintf(w, "  invalidate %s: %d partition(s) dropped by batch updates\n", e.Name, e.Count)
		case KindFaultInjected:
			fmt.Fprintf(w, "  fault: %s on container %d at t=%.1fs\n", e.Name, e.Container, e.T)
		case KindFaultRecovered:
			fmt.Fprintf(w, "  fault recovered: %s (%d op effect(s) repaired)\n", e.Name, e.Count)
		case KindMoneySettled:
			fmt.Fprintf(w, "  settled: %.1f quanta, makespan %.1fs", e.MoneyQuanta, e.Makespan)
			if e.WastedQuanta > 0 {
				fmt.Fprintf(w, ", %.1fq wasted to faults", e.WastedQuanta)
			}
			fmt.Fprintln(w)
		default:
			fmt.Fprintf(w, "  [%d] %s %s\n", e.Seq, e.Kind, e.Name)
		}
	}
}
