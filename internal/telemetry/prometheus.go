package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every metric in the registry in the Prometheus
// text exposition format (version 0.0.4), the format scraped from a
// /metrics endpoint. Families are sorted by name and series by label
// values, so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make(map[string]*family, len(r.fams))
	for n, f := range r.fams {
		names = append(names, n)
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	for _, name := range names {
		if err := fams[name].write(w); err != nil {
			return err
		}
	}
	return nil
}

// seriesView is a point-in-time copy of one labeled series for rendering.
type seriesView struct {
	labels string // the series key: its {k="v",...} block, "" when unlabeled
	metric any
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	views := make([]seriesView, 0, len(f.series))
	for key, m := range f.series {
		views = append(views, seriesView{labels: key, metric: m})
	}
	f.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].labels < views[j].labels })

	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, v := range views {
		var err error
		switch m := v.metric.(type) {
		case interface{ Value() float64 }: // *Counter, *Gauge
			_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, v.labels, formatFloat(m.Value()))
		case *Histogram:
			err = writeHistogram(w, f.name, v.labels, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders the cumulative _bucket series plus _sum and
// _count.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	uppers, cum := h.Buckets()
	for i, le := range uppers {
		leStr := "+Inf"
		if !math.IsInf(le, 1) {
			leStr = formatFloat(le)
		}
		lbl := mergeLabel(labels, `le="`+leStr+`"`)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, lbl, cum[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
	return err
}

// mergeLabel appends one rendered pair to an existing {..} block.
func mergeLabel(labels, pair string) string {
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
