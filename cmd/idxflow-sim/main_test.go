package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestBadFlagsReturnTwo(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-strategy", "nope"}, {"-algo", "nope"}, {"-generator", "nope"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stderr.Len() == 0 {
			t.Errorf("run %v: exit %d, stderr %q", args, code, stderr.String())
		}
	}
}
