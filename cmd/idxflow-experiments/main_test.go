package main

import (
	"bytes"
	"flag"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run's output")

// simulatedExps is every experiment whose output is a function of the seed:
// all but the wall-clock table6.
var simulatedExps = []string{
	"params", "table4", "table5", "fig3", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig14", "fault", "ablation",
}

// TestGoldenTables pins the rendered output of every simulated experiment at
// the default flags to the byte: a refactor of the tuner, the scheduler or
// the executor that moves one digit of one table fails here. -update records
// the current output instead. The one flag passed is -parallelism 1: the
// tables are identical at any setting, and a fan-out over every core while
// `go test ./...` runs internal/experiments in the next process makes that
// package's wall-clock Table 6 shape tests fail four times as often.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulated experiment (~20 s)")
	}
	for _, id := range simulatedExps {
		t.Run(id, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-exp", id, "-parallelism", "1"}, &stdout, &stderr); code != 0 {
				t.Fatalf("-exp %s: exit %d, stderr:\n%s", id, code, stderr.String())
			}
			checkGolden(t, filepath.Join("testdata", id+".golden"), stdout.Bytes())
		})
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

// TestUnknownExperimentStillClosesProfile: a run that fails after the CPU
// profile was started returns its exit code through run, so the deferred
// stop finishes and closes the profile. The old main called os.Exit past it.
func TestUnknownExperimentStillClosesProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "no-such-exp", "-cpuprofile", prof}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unknown experiment") || stdout.Len() != 0 {
		t.Errorf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Errorf("profile not written: %v", err)
	}
	// Only one CPU profile can run at a time: a second start succeeds only
	// if the first was stopped.
	if err := pprof.StartCPUProfile(new(bytes.Buffer)); err != nil {
		t.Errorf("the profile was left running: %v", err)
	}
	pprof.StopCPUProfile()
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-exp", "fault", "-faults", "x"}} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code == 0 || stderr.Len() == 0 {
			t.Errorf("run %v: exit %d, stderr %q", args, code, stderr.String())
		}
	}
}

// TestExperimentIDs: every id of the one declared list passes the -exp
// check and is named in the package doc.
func TestExperimentIDs(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	for _, e := range experimentIDs {
		if !known(e.id) {
			t.Errorf("-exp %s is rejected", e.id)
		}
		if !regexp.MustCompile(`\b` + e.id + `\b`).MatchString(doc) {
			t.Errorf("the package doc does not name -exp %s", e.id)
		}
	}
}
