package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idxflow/internal/provenance"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run's output")

// TestGoldenExplainTranscript pins `idxflow-sim -horizon 120 -explain` to
// the byte: every provenance event of the run, in Seq order, with the gain
// inputs that justified it, followed by the summary. A change to any tuner
// decision, to the order decisions are recorded in, or to the RNG draw order
// shows here. -update records the current output instead.
func TestGoldenExplainTranscript(t *testing.T) {
	if testing.Short() {
		t.Skip("golden files are checked by the plain go test ./...")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-horizon", "120", "-explain"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	checkGolden(t, filepath.Join("testdata", "explain_h120.golden"), stdout.Bytes())
}

// TestGoldenEventsJSONL pins the `-events` log of the same run, every field
// of every event to the last bit, and asserts what the recorder's doc
// promises: runs of one seed write the same bytes. The header line carries
// the build's revision and Go version, so the golden holds the event lines
// only.
func TestGoldenEventsJSONL(t *testing.T) {
	checkEventsGolden(t, filepath.Join("testdata", "events_h120.golden.jsonl"), "-horizon", "120")
}

// TestGoldenEventsJSONLFaults pins the `-events` log of a faulty online run
// the same way: it holds the build-killed, fault-injected and
// fault-recovered events the executor produces, which the fault-free log
// above has none of.
func TestGoldenEventsJSONLFaults(t *testing.T) {
	got := checkEventsGolden(t, filepath.Join("testdata", "events_h60_faults.golden.jsonl"),
		"-horizon", "60", "-faults", "0.03", "-algo", "online")
	for _, kind := range []string{"build-killed", "fault-injected", "fault-recovered"} {
		if !bytes.Contains(got, []byte(`"kind":"`+kind+`"`)) {
			t.Errorf("the faulty run recorded no %s event", kind)
		}
	}
}

// checkEventsGolden runs idxflow-sim with args and -events three times,
// requires the same bytes each time, and compares the event lines with the
// golden at path. It returns those lines.
func checkEventsGolden(t *testing.T, path string, args ...string) []byte {
	t.Helper()
	if testing.Short() {
		t.Skip("golden files are checked by the plain go test ./...")
	}
	out := filepath.Join(t.TempDir(), "events.jsonl")
	var first []byte
	for i := 0; i < 3; i++ {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-events", out), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
		}
		log, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = log
		} else if !bytes.Equal(log, first) {
			t.Fatalf("run %d of the same seed wrote a different event log", i+1)
		}
	}
	header, events, _ := bytes.Cut(first, []byte("\n"))
	if !bytes.Contains(header, []byte(`"format":"idxflow-events/1"`)) {
		t.Errorf("first line is not the log header: %s", header)
	}
	checkGolden(t, path, events)
	return events
}

// TestEvictedIndexIsRebuilt is Fig 13's claim by name, at the full horizon:
// an index the tuner deleted when it stopped paying is built again, by the
// same name, when dataflows that want it return. (The golden Fig 13 table
// shows the same run as a count that falls and then passes its old peak.)
func TestEvictedIndexIsRebuilt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 720-quantum phase workload")
	}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-events", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var header provenance.Header
	if err := dec.Decode(&header); err != nil {
		t.Fatal(err)
	}
	evictedAt := map[string]float64{}
	evicted, rebuilt := 0, 0
	for dec.More() {
		var e provenance.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		switch at, gone := evictedAt[e.Name]; {
		case e.Kind == provenance.KindIndexEvicted:
			evictedAt[e.Name] = e.T
			evicted++
		case e.Kind == provenance.KindBuildCommitted && gone && e.T > at:
			delete(evictedAt, e.Name)
			rebuilt++
		}
	}
	if evicted == 0 || rebuilt == 0 {
		t.Errorf("%d indexes evicted, %d of them built again later; want both to happen", evicted, rebuilt)
	}
}

// checkGolden compares got with the file at path and reports the first line
// that differs, or rewrites the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, gl, wl)
		}
	}
}

// TestUnwritableEventsStillWritesTrace: a run whose -events path cannot be
// created fails with exit 1 after the trace was written, not before.
func TestUnwritableEventsStillWritesTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-horizon", "5", "-events", filepath.Join(dir, "no-such-dir", "e.jsonl"), "-trace", trace}, &stdout, &stderr)
	if code != 1 || stderr.Len() == 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if b, err := os.ReadFile(trace); err != nil || !bytes.Contains(b, []byte(`"traceEvents"`)) {
		t.Errorf("trace not written: %v", err)
	}
}

// TestRandomEventsLogIsComplete: the random generator's stock run records
// about 35,000 events, and its -events log holds every one: the header's
// total equals the event lines.
func TestRandomEventsLogIsComplete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-generator", "random", "-events", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first, events, _ := bytes.Cut(log, []byte("\n"))
	var header provenance.Header
	if err := json.Unmarshal(first, &header); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(events, []byte("\n")); header.Total == 0 || uint64(lines) != header.Total || header.Dropped != 0 {
		t.Errorf("header total %d (dropped %d), %d event lines", header.Total, header.Dropped, lines)
	}
}

// TestWrappedRingFails: a recorder that dropped events fails the command
// with the dropped count, where -events or -explain would emit it.
func TestWrappedRingFails(t *testing.T) {
	rec := provenance.NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec.Append(provenance.Event{Kind: provenance.KindFlowAdmitted})
	}
	if err := complete(rec); err == nil || !strings.Contains(err.Error(), "dropped 6 of 10") {
		t.Errorf("complete(wrapped ring) = %v, want the dropped count", err)
	}
	if err := complete(provenance.NewRecorder(0)); err != nil {
		t.Errorf("complete(empty ring) = %v", err)
	}
	if err := complete(nil); err != nil {
		t.Errorf("complete(no recorder) = %v", err)
	}
}

func TestBadFlagsReturnTwo(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-strategy", "nope"}, {"-algo", "nope"}, {"-generator", "nope"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stderr.Len() == 0 {
			t.Errorf("run %v: exit %d, stderr %q", args, code, stderr.String())
		}
	}
}
