package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Tiny sizes for the smoke runs: every validity gate still holds at them.
var (
	smokeServe = map[string]serveParams{
		"serve_unique":    {tenants: 2, warmupOps: 8, opsPerBlock: 64, windowOps: 16, traceOps: 8, provCap: 4096},
		"serve_recurring": {tenants: 2, warmupOps: 8, opsPerBlock: 120, windowOps: 30, templates: 1, repeats: 64, traceOps: 16, provCap: 4096},
	}
	smokeDP = map[string]dpParams{
		"dp_query": {queryScale: 0.002, poolFrames: 4, memRows: 1024, opsPerBlock: 50, windowOps: 10},
		"dp_build": {buildRows: 6000, poolFrames: 16, memRows: 1024, opsPerBlock: 50, windowOps: 10},
	}
)

func TestSameSeedSameInputs(t *testing.T) {
	for name, p := range smokeServe {
		a, err := generateBodies(name, 7, p)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generateBodies(name, 7, p)
		c, _ := generateBodies(name, 8, p)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different sets of bodies", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same bodies", name)
		}
	}
	a, b, c := buildPartition(7, 3000), buildPartition(7, 3000), buildPartition(8, 3000)
	if len(a) != 3000 || len(c) != 3000 {
		t.Fatalf("partitions of %d and %d rows, want 3000", len(a), len(c))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 7 gave two different partitions")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same partition")
	}
}

func TestRecurringRepeatsConsecutively(t *testing.T) {
	p := serveParams{tenants: 2, warmupOps: 0, opsPerBlock: 96, templates: 6, repeats: 8}
	bodies, err := generateBodies("serve_recurring", 1, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range bodies {
		distinct := make(map[string]bool)
		for i, body := range seq {
			distinct[body] = true
			if i%p.repeats != 0 && body != seq[i-1] {
				t.Fatalf("flow %d differs from flow %d inside one run of repeats", i, i-1)
			}
		}
		if len(distinct) != p.templates {
			t.Errorf("%d distinct templates, want %d", len(distinct), p.templates)
		}
	}
}

// TestPinningKeepsTenantOrder drives runPhase against a stub server and
// checks that each tenant's flows arrive in submission order, whatever the
// number of connections.
func TestPinningKeepsTenantOrder(t *testing.T) {
	const tenants, flows = 5, 20
	bodies := make([][]string, tenants)
	for tn := range bodies {
		for i := 0; i < flows; i++ {
			bodies[tn] = append(bodies[tn], fmt.Sprintf("%d", i))
		}
	}
	for _, conns := range []int{1, 2, 3, 8} {
		owners := make(map[int]int)
		for k := 0; k < conns; k++ {
			for _, tn := range tenantsOf(k, conns, tenants) {
				owners[tn]++
			}
		}
		for tn := 0; tn < tenants; tn++ {
			if owners[tn] != 1 {
				t.Fatalf("%d conns: tenant %d has %d owners", conns, tn, owners[tn])
			}
		}

		var mu sync.Mutex
		seen := make(map[string][]string)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			b, _ := io.ReadAll(r.Body)
			mu.Lock()
			tenant := r.URL.Query().Get("tenant")
			seen[tenant] = append(seen[tenant], string(b))
			mu.Unlock()
			fmt.Fprint(w, `{"money_quanta":1}`)
		}))
		for _, r := range runPhase(srv.Client(), srv.URL, bodies, conns, 0, flows) {
			if r.err != nil || r.failed != 0 {
				t.Fatalf("%d conns: err %v, %d failed", conns, r.err, r.failed)
			}
		}
		srv.Close()
		for tn := 0; tn < tenants; tn++ {
			if got := seen[tenantName(tn)]; !reflect.DeepEqual(got, bodies[tn]) {
				t.Errorf("%d conns: tenant %d saw %v", conns, tn, got)
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.1, 1}, {0.05, 1}} {
		if got := percentile(ten, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile reordered its input")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 0.9); got != 90 {
		t.Errorf("percentile(1..100, 0.9) = %v, want 90", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

// TestHostSlowdownScalesTimes checks that a run whose host kernel took
// twice its reference time reports half the clock's times and twice its
// throughput, and leaves memory and outcome alone.
func TestHostSlowdownScalesTimes(t *testing.T) {
	if ms := kernelMS(2); ms <= 0 {
		t.Fatalf("kernelMS = %v, want a time", ms)
	}
	lat := make([]float64, minLatencySamples)
	for i := range lat {
		lat[i] = 8
	}
	b := block{setupS: 3, timedS: 1, peakRSSMB: 50, ops: len(lat), latMS: lat, outcome: 700,
		windows: []window{{opsPerS: 100, cpuMSPerOp: 4, kernelMS: 2 * kernelRefMS}}}
	res := endToEndResult(config{}, []block{b, b}, 0)
	for name, want := range map[string]float64{
		"ops_per_s": 200, "latency_p50_ms": 4, "latency_p90_ms": 4, "cpu_ms_per_op": 2,
		"setup_s": 1.5, "peak_rss_mb": 50, "outcome_per_op": 7,
	} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestNamesMatchBenchmarkJSON checks that the driver and BENCHMARK.json
// name the same workloads and metrics, with the same units.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the driver's %v", names, workloadNames)
	}
	for _, n := range workloadNames {
		_, serve := defaultServe[n]
		_, dp := defaultDP[n]
		if !valid.MatchString(n) || serve == dp {
			t.Errorf("workload %q: bad name or not exactly one kind", n)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, driver []metricSpec) {
		var got []metricSpec
		for _, m := range file {
			got = append(got, metricSpec{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, driver) {
			t.Errorf("%s: BENCHMARK.json lists %v, the driver %v", kind, got, driver)
		}
		for _, m := range driver {
			if !valid.MatchString(m.name) {
				t.Errorf("%s: bad metric name %q", kind, m.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

var (
	serverOnce sync.Once
	serverPath string
	serverErr  error
)

// serverBinary builds idxflow-server once for the smoke runs.
func serverBinary(t *testing.T) string {
	serverOnce.Do(func() {
		dir, err := os.MkdirTemp("", "idxflow-bench-test-")
		if err != nil {
			serverErr = err
			return
		}
		serverPath = filepath.Join(dir, "idxflow-server")
		out, err := exec.Command("go", "build", "-o", serverPath, "idxflow/cmd/idxflow-server").CombinedOutput()
		if err != nil {
			serverErr = fmt.Errorf("go build: %v: %s", err, out)
		}
	})
	if serverErr != nil {
		t.Fatal(serverErr)
	}
	return serverPath
}

func TestMain(m *testing.M) {
	// The smoke runs start this test binary as their host-kernel child.
	if par, err := strconv.Atoi(os.Getenv(kernelEnv)); err == nil {
		kernelChild(par)
		return
	}
	code := m.Run()
	if serverPath != "" {
		os.RemoveAll(filepath.Dir(serverPath))
	}
	os.Exit(code)
}

// TestSmoke runs every workload at tiny op counts, untraced and traced, and
// requires its verification and validity gates to pass.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				cfg := config{
					workload: name, seed: 3, seconds: 0, trace: trace,
					tmpDir: t.TempDir(), outDir: t.TempDir(), conns: 2,
					serve: smokeServe[name], dp: smokeDP[name],
				}
				if _, serve := smokeServe[name]; serve {
					cfg.serverBin = serverBinary(t)
				}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d failed: %s", res.Correct, res.Failed, res.Attempted, strings.Join(res.invalid, "; "))
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
						t.Errorf("metric %s: present %v, unit %q, want %q", s.name, ok, m.Unit, s.unit)
					}
				}
				if !trace {
					for _, s := range endToEnd {
						if res.Metrics[s.name].Value <= 0 {
							t.Errorf("%s = %v, an end-to-end metric is never 0", s.name, res.Metrics[s.name].Value)
						}
					}
					return
				}
				checkTrace(t, tracePath(cfg))
			})
		}
	}
}

// checkTrace requires a Chrome trace whose spans carry op ids and parents,
// with every child inside its parent.
func checkTrace(t *testing.T, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name    string
			TS, Dur float64
			Args    struct {
				ID, Parent, Op *int
			}
		}
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	children := 0
	for i, e := range trace.TraceEvents {
		if e.Args.ID == nil || e.Args.Parent == nil || e.Args.Op == nil || *e.Args.ID != i {
			t.Fatalf("span %d (%s) lacks id, parent or op", i, e.Name)
		}
		if p := *e.Args.Parent; p >= 0 {
			children++
			parent := trace.TraceEvents[p]
			if *parent.Args.Op != *e.Args.Op || e.TS < parent.TS || e.TS+e.Dur > parent.TS+parent.Dur+1 {
				t.Fatalf("span %d (%s) is not inside its parent %d (%s)", i, e.Name, p, parent.Name)
			}
		}
	}
	if children == 0 {
		t.Error("no span has a parent")
	}
}
