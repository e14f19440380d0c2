package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The paper's §6 results, asserted on the values the goldens record at the
// full horizon. TestGoldenTables pins the bytes; these pin what the bytes
// must keep saying, so a deliberate `make golden-update` cannot lose a
// result without a test failing beside it.

// table is one rendered table of a golden file: its rows by first cell.
type table struct {
	t     *testing.T
	title string
	cols  map[string]int
	keys  []string // first cells, in file order
	rows  map[string][]string
}

var cellGap = regexp.MustCompile(`\s{2,}`)

// goldenTable reads the table titled title from testdata/<exp>.golden.
func goldenTable(t *testing.T, exp, title string) *table {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", exp+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if line != "== "+title+" ==" || i+2 >= len(lines) {
			continue
		}
		tb := &table{t: t, title: title, cols: map[string]int{}, rows: map[string][]string{}}
		for j, name := range cellGap.Split(strings.TrimSpace(lines[i+1]), -1) {
			tb.cols[name] = j
		}
		for _, row := range lines[i+3:] { // lines[i+2] is the rule under the header
			if row == "" || strings.HasPrefix(row, "note:") || strings.HasPrefix(row, "==") {
				break
			}
			cells := cellGap.Split(strings.TrimSpace(row), -1)
			tb.keys = append(tb.keys, cells[0])
			tb.rows[cells[0]] = cells
		}
		return tb
	}
	t.Fatalf("testdata/%s.golden has no table %q", exp, title)
	return nil
}

// num returns the number in column col of the row whose first cell is key.
func (tb *table) num(key, col string) float64 {
	tb.t.Helper()
	row, ok := tb.rows[key]
	c, okc := tb.cols[col]
	if !ok || !okc || c >= len(row) {
		tb.t.Fatalf("table %q has no cell (%q, %q)", tb.title, key, col)
	}
	v, err := strconv.ParseFloat(row[c], 64)
	if err != nil {
		tb.t.Fatalf("table %q cell (%q, %q): %v", tb.title, key, col, err)
	}
	return v
}

// Fig 12 (phase workload) and Fig 14 (random workload): the tuner roughly
// doubles throughput at a fraction of the cost per dataflow, random index
// building only adds cost, and never deleting pays for storage Gain sheds.
func TestClaimGainBeatsBaselines(t *testing.T) {
	for exp, workload := range map[string]string{"fig12": "phase", "fig14": "random"} {
		done := goldenTable(t, exp, "Num dataflows finished ("+workload+")")
		cost := goldenTable(t, exp, "Cost / dataflow ("+workload+")")
		const finished, perFlow, storage = "Finished", "Cost per dataflow ($)", "Storage cost ($)"

		if ratio := done.num("gain", finished) / done.num("no-index", finished); ratio < 1.5 || ratio > 3 {
			t.Errorf("%s: Gain finishes %.2fx No-Index's dataflows, want about 2x", exp, ratio)
		}
		if g, n := cost.num("gain", perFlow), cost.num("no-index", perFlow); g >= n/2 {
			t.Errorf("%s: Gain costs $%g per dataflow against No-Index's $%g, want under half", exp, g, n)
		}
		if r, n := done.num("random", finished), done.num("no-index", finished); r > n {
			t.Errorf("%s: Random finishes %g dataflows against No-Index's %g, want no more", exp, r, n)
		}
		if r, n := cost.num("random", perFlow), cost.num("no-index", perFlow); r <= n {
			t.Errorf("%s: Random costs $%g per dataflow against No-Index's $%g, want more", exp, r, n)
		}
		if nd, g := cost.num("gain-no-delete", storage), cost.num("gain", storage); nd <= g {
			t.Errorf("%s: no-delete pays $%g for storage against Gain's $%g, want more", exp, nd, g)
		}
	}
}

// Fig 13: the index set follows the workload. It stays small through the
// CyberShake phase (10,000 s = 166.7 quanta of arrivals), grows several-fold
// once LIGO's flows arrive, shrinks when the tuner deletes what stopped
// paying, and grows past its earlier peak when the demand returns.
// cmd/idxflow-sim's TestEvictedIndexIsRebuilt checks the same run by name.
func TestClaimIndexSetFollowsPhases(t *testing.T) {
	fig13 := goldenTable(t, "fig12", "Fig 13: Adaptation over time, Gain strategy (phase)")
	var firstPhase, peak, trough, after float64
	dropped := false
	for _, key := range fig13.keys {
		at, _ := strconv.ParseFloat(key, 64)
		n := fig13.num(key, "Indexes built")
		switch {
		case at <= 10000.0/60:
			firstPhase = max(firstPhase, n)
		case !dropped && n >= peak:
			peak = n
		case !dropped:
			dropped, trough = true, n
		default:
			trough, after = min(trough, n), max(after, n)
		}
	}
	if firstPhase == 0 || peak < 5*firstPhase {
		t.Errorf("index count %g in the first phase, %g at the next peak; want it to grow several-fold with the phase change", firstPhase, peak)
	}
	if !dropped || after <= peak {
		t.Errorf("index count peaks at %g, falls to %g (fell: %v), then reaches %g; want deletions and then regrowth past the peak", peak, trough, dropped, after)
	}
}

// Fig 6: the offline schedule tolerates estimation errors up to about 20 %
// and degrades beyond.
func TestClaimRobustToEstimationError(t *testing.T) {
	fig6 := goldenTable(t, "fig6", "Fig 6: Offline scheduler sensitivity to estimation errors")
	for _, col := range []string{"Time diff %", "Money diff %", "Fragmentation diff %"} {
		var small, large float64 = 0, 1e9
		for _, key := range fig6.keys {
			if errPct, _ := strconv.ParseFloat(key, 64); errPct <= 20 {
				small = max(small, fig6.num(key, col))
			} else {
				large = min(large, fig6.num(key, col))
			}
		}
		if small >= 10 || large <= small {
			t.Errorf("%s: at most %g up to 20 %% error, at least %g beyond; want under 10 and then more", col, small, large)
		}
	}
}

// Fig 11 (§6.4): the LP interleaving is within a few percent of the
// merged-slot upper bound, and no worse than Graham's list heuristic.
func TestClaimLPNearUpperBound(t *testing.T) {
	fig11 := goldenTable(t, "fig11", "Fig 11: Total gain using different algorithms (Fig 10 input)")
	const gain = "Total gain (quanta)"
	graham, lp, bound := fig11.num("Graham", gain), fig11.num("Linear Prog.", gain), fig11.num("Upper Bound", gain)
	if graham > lp || lp > bound || lp < 0.95*bound {
		t.Errorf("Graham %g, LP %g, bound %g; want Graham <= LP <= bound and LP within 5 %% of it", graham, lp, bound)
	}
}
