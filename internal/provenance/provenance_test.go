package provenance

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestNilRecorderIsNoop(t *testing.T) {
	var nilRec *Recorder
	nilRec.Append(Event{Kind: KindFlowAdmitted}) // must not panic
	if nilRec.Active() || nilRec.Len() != 0 || nilRec.Snapshot() != nil {
		t.Fatal("nil recorder should be inert")
	}

	r := NewRecorder(8)
	r.Append(Event{Kind: KindFlowAdmitted})
	if !r.Active() || r.Len() != 1 {
		t.Fatalf("new recorder: active %v, %d events, want on with 1", r.Active(), r.Len())
	}
}

func TestAppendStampsSequences(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 3; i++ {
		r.Append(Event{Kind: KindFlowAdmitted, Flow: FlowID(i + 1)})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d events, want 3", len(snap))
	}
	for i, e := range snap {
		if e.Seq != uint64(i) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Append(Event{Kind: KindMoneySettled, T: float64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(snap))
	}
	// The oldest surviving event is seq 6; order must be ascending across
	// the physical wrap point.
	for i, e := range snap {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("snapshot[%d].Seq = %d, want %d", i, e.Seq, want)
		}
		if e.T != float64(6+i) {
			t.Errorf("snapshot[%d].T = %g, want %d", i, e.T, 6+i)
		}
	}
}

// TestConcurrentAppendAndSnapshot exercises the ring under -race: many
// writers wrapping the buffer while snapshots are taken mid-append. Every
// snapshot must be internally consistent (ascending unique seqs).
func TestConcurrentAppendAndSnapshot(t *testing.T) {
	r := NewRecorder(64)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Append(Event{Kind: KindFaultInjected, Flow: FlowID(w + 1), Count: i})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			snap := r.Snapshot()
			for j := 1; j < len(snap); j++ {
				if snap[j].Seq <= snap[j-1].Seq {
					t.Errorf("snapshot seqs out of order: %d then %d", snap[j-1].Seq, snap[j].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
}

func TestFlowEvents(t *testing.T) {
	r := NewRecorder(16)
	r.Append(Event{Kind: KindFlowAdmitted, Flow: 1})
	r.Append(Event{Kind: KindFlowAdmitted, Flow: 2})
	r.Append(Event{Kind: KindMoneySettled, Flow: 1})
	evs := r.FlowEvents(1)
	if len(evs) != 2 {
		t.Fatalf("flow 1 has %d events, want 2", len(evs))
	}
	if evs[0].Kind != KindFlowAdmitted || evs[1].Kind != KindMoneySettled {
		t.Fatalf("unexpected kinds %v, %v", evs[0].Kind, evs[1].Kind)
	}
	if r.FlowEvents(9) != nil {
		t.Fatal("unknown flow should return nil")
	}
}

// readLog decodes a log as WriteLog writes it: a header, then the events.
func readLog(t *testing.T, r io.Reader) (Header, []Event) {
	t.Helper()
	dec := json.NewDecoder(r)
	var h Header
	if err := dec.Decode(&h); err != nil {
		t.Fatalf("header line: %v", err)
	}
	var events []Event
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("event line %d: %v", len(events), err)
		}
		events = append(events, e)
	}
	return h, events
}

func TestEmptyLogExport(t *testing.T) {
	r := NewRecorder(8)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// An empty recorder still writes the header line, so the output is a
	// valid, attributable log.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("empty log has %d lines, want 1 header line: %q", len(lines), buf.String())
	}
	h, events := readLog(t, &buf)
	if h.Format != FormatName || h.Total != 0 || len(events) != 0 {
		t.Fatalf("round-trip gave header %+v, %d events", h, len(events))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(8)
	r.Append(Event{Kind: KindFlowAdmitted, Flow: 1, T: 0, Name: "montage-0", Count: 12})
	r.Append(Event{
		Kind: KindFlowScheduled, Flow: 1, T: 0, Makespan: 120.5, MoneyQuanta: 4,
		Containers: 2, Alts: []ParetoPoint{{Makespan: 150, MoneyQuanta: 3, Containers: 1}},
	})
	r.Append(Event{
		Kind: KindIndexAdopted, Flow: 1, T: 0, Name: "t/col", TimeGain: 1.5,
		MoneyGain: 0.2, Gain: 0.9, BuildQuanta: 0.5, SizeMB: 12, FadeD: 10,
		WindowW: 120, Records: 3,
	})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	h, events := readLog(t, &buf)
	if h.Total != 3 || len(events) != 3 {
		t.Fatalf("header total %d, %d events", h.Total, len(events))
	}
	for i, e := range events {
		orig := r.Snapshot()[i]
		if e.Kind != orig.Kind || e.Flow != orig.Flow || e.Name != orig.Name ||
			e.TimeGain != orig.TimeGain || len(e.Alts) != len(orig.Alts) {
			t.Errorf("event %d did not round-trip: got %+v want %+v", i, e, orig)
		}
	}
}

func TestParseKind(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

// TestGoldenJSONL pins the event wire format byte-for-byte: a fixed event
// sequence must serialize identically across changes. Regenerate with
// go test ./internal/provenance -run Golden -update.
func TestGoldenJSONL(t *testing.T) {
	events := []Event{
		{Seq: 0, Kind: KindFlowAdmitted, Flow: 1, T: 0, Name: "cybershake-0", Count: 9},
		{Seq: 2, Kind: KindIndexRejected, Flow: 1, T: 0, Name: "lineitem/orderkey",
			TimeGain: -0.25, MoneyGain: -0.5, BuildQuanta: 1.25, SizeMB: 64, FadeD: 10, WindowW: 120, Records: 1},
		{Seq: 3, Kind: KindIndexAdopted, Flow: 1, T: 0, Name: "orders/custkey",
			TimeGain: 2.5, MoneyGain: 0.75, Gain: 1.375, BuildQuanta: 0.5, SizeMB: 32, FadeD: 10, WindowW: 120, Records: 2},
		{Seq: 4, Kind: KindInterleaved, Flow: 1, T: 0, Count: 3, Records: 4, Containers: 2},
		{Seq: 5, Kind: KindFlowScheduled, Flow: 1, T: 0, Makespan: 240, MoneyQuanta: 8, Containers: 2,
			Alts: []ParetoPoint{{Makespan: 300, MoneyQuanta: 6, Containers: 1}}},
		{Seq: 6, Kind: KindBuildPlaced, Flow: 1, T: 0, Name: "orders/custkey", Part: 3,
			Op: "build:idx/orders/custkey/3", Container: 1, Start: 100, End: 130},
		{Seq: 7, Kind: KindFaultInjected, Flow: 1, T: 90, Name: "crash", Container: 1, Count: 1},
		{Seq: 8, Kind: KindBuildKilled, Flow: 1, T: 100, Op: "build:idx/orders/custkey/3",
			Container: 1, Start: 100, End: 110, Reason: "fault"},
		{Seq: 9, Kind: KindFaultRecovered, Flow: 1, T: 90, Name: "crash", Container: 1, Count: 1},
		{Seq: 10, Kind: KindBuildCommitted, Flow: 1, T: 250, Name: "orders/custkey", Part: 2, SizeMB: 8},
		{Seq: 11, Kind: KindIndexEvicted, Flow: 1, T: 250, Name: "part/brand",
			TimeGain: -1, MoneyGain: -0.125, SizeMB: 16, FadeD: 10, WindowW: 120, Records: 4},
		{Seq: 12, Kind: KindIndexInvalidated, Flow: 1, T: 250, Name: "batch-update", Count: 2},
		{Seq: 13, Kind: KindMoneySettled, Flow: 1, T: 250, Makespan: 250, MoneyQuanta: 9,
			WastedQuanta: 0.5, Containers: 2},
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, Header{Format: FormatName}, events); err != nil {
		t.Fatal(err)
	}
	// The golden file holds the event lines only: a recorder's header
	// carries build info, which varies by environment.
	got := buf.Bytes()[bytes.IndexByte(buf.Bytes(), '\n')+1:]
	golden := filepath.Join("testdata", "events.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden mismatch (regenerate with -update if the format change is intended)\ngot:\n%swant:\n%s", got, want)
	}
	// The written bytes must also parse back to the same events.
	_, parsed := readLog(t, &buf)
	if len(parsed) != len(events) {
		t.Fatalf("parsed %d events from golden, want %d", len(parsed), len(events))
	}
}

func TestExplainEmptyLog(t *testing.T) {
	var buf bytes.Buffer
	if err := Explain(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no events recorded") {
		t.Fatalf("empty explain output: %q", buf.String())
	}
}

func TestExplainNarrative(t *testing.T) {
	events := []Event{
		{Seq: 0, Kind: KindFlowAdmitted, Flow: 1, T: 0, Name: "ligo-3", Count: 7},
		{Seq: 1, Kind: KindIndexAdopted, Flow: 1, Name: "t/c", TimeGain: 2, MoneyGain: 1, Gain: 1.5},
		{Seq: 2, Kind: KindFlowScheduled, Flow: 1, Makespan: 100, MoneyQuanta: 4, Containers: 2,
			Alts: []ParetoPoint{{Makespan: 130, MoneyQuanta: 3}}},
		{Seq: 3, Kind: KindBuildKilled, Flow: 1, Op: "build:idx/t/c/0", Container: 1, Reason: "expired"},
		{Seq: 4, Kind: KindMoneySettled, Flow: 1, MoneyQuanta: 4, Makespan: 100},
		{Seq: 5, Kind: KindFaultInjected, Flow: 0, T: 30, Name: "crash", Container: 2},
	}
	var buf bytes.Buffer
	if err := Explain(&buf, events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`flow 1 "ligo-3" admitted`,
		"adopt t/c",
		"beat 1 Pareto alternative(s)",
		"build build:idx/t/c/0 killed on container 1 (expired)",
		"settled: 4.0 quanta",
		"unattributed events:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Append(Event{Kind: KindFlowAdmitted})
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatalf("after reset: len=%d total=%d dropped=%d", r.Len(), r.Total(), r.Dropped())
	}
	r.Append(Event{Kind: KindFlowAdmitted})
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Seq != 0 {
		t.Fatalf("post-reset snapshot %+v", snap)
	}
}
