package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"idxflow/internal/check"
	"idxflow/internal/core"
	"idxflow/internal/flowlang"
	"idxflow/internal/qaas"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

// testServer builds a server over a small pipeline with the in-line
// auditor on, and an httptest front for it. mutate tweaks the pipeline
// config before construction. The pipeline is drained when the test ends.
func testServer(t *testing.T, mutate func(*qaas.Config)) (*Server, *httptest.Server) {
	t.Helper()
	cc := core.DefaultConfig()
	cc.Sched.MaxSkyline = 4
	cc.Sched.MaxContainers = 8
	cc.MaxBuildOps = 16
	cc.Gain.WindowW = 30
	cc.Gain.FadeD = 30
	// The server's own registry, as idxflow-server builds one: /metrics
	// assertions read this test's counts only.
	cc.Telemetry = telemetry.NewRegistry()
	auditor := &check.ExecAuditor{Exact: true}
	cfg := qaas.Config{
		Core:            cc,
		Seed:            1,
		Workers:         2,
		QueueDepth:      16,
		FleetContainers: 16,
		PostExec:        auditor.Hook,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p := qaas.New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.Drain(ctx); err != nil {
			t.Errorf("pipeline drain: %v", err)
		}
	})
	srv := NewQaaS(p, auditor)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// defaultFlow instantiates tenant "default" — the tenant a request that
// names none lands on — and builds a flowlang dataflow reading a real
// partition of its catalog, so the tuner has something to index.
func defaultFlow(t *testing.T, s *Server) string {
	t.Helper()
	tenant, err := s.pipe.Tenant(DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	var text string
	tenant.Do(func(_ *core.Service, db *workload.FileDB) {
		path := db.Files[0].Table.Partitions[0].Path
		idx := db.Files[0].Indexes[0].Name()
		text = `
flow api-test
input ` + path + `
op scan kind=range time=40 reads=` + path + `
op agg kind=aggregate time=10
edge scan -> agg size=4
index ` + idx + ` ops=scan:94.44
`
	})
	return text
}

// submitFlow posts body with no tenant named and requires a 200.
func submitFlow(t *testing.T, ts *httptest.Server, body string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/dataflows", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

// TestWriteJSONUnencodable: a value JSON cannot encode is a 500 carrying
// the encoder's error, not the intended status with the error for a body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %q)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "NaN") {
		t.Errorf("body %q does not carry the encoding error", rec.Body.String())
	}
}

func TestSubmitDataflow(t *testing.T) {
	s, ts := testServer(t, nil)
	body := defaultFlow(t, s)
	resp, err := http.Post(ts.URL+"/v1/dataflows", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Flow != "api-test" {
		t.Errorf("flow = %q", out.Flow)
	}
	if out.MakespanSeconds <= 0 || out.MoneyQuanta <= 0 {
		t.Errorf("result = %+v", out)
	}
}

func TestSubmitRejectsBadInput(t *testing.T) {
	_, ts := testServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/dataflows", "text/plain", strings.NewReader("not a flow"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestSubmitWrongMethod(t *testing.T) {
	_, ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/dataflows")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d, want 405", resp.StatusCode)
	}
}

func TestIndexLifecycleOverAPI(t *testing.T) {
	s, ts := testServer(t, nil)
	// Submit the same flow a few times so its index becomes beneficial and
	// gets built.
	body := defaultFlow(t, s)
	for i := 0; i < 4; i++ {
		submitFlow(t, ts, body)
	}
	resp, err := http.Get(ts.URL + "/v1/indexes?available=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []IndexInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Error("no index became available after repeated submissions")
	}
	for _, in := range infos {
		if !in.Available || in.BuiltCount == 0 {
			t.Errorf("non-available index in filtered list: %+v", in)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := testServer(t, nil)
	submitFlow(t, ts, defaultFlow(t, s))
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Tenant != DefaultTenant || m.Admitted != 1 {
		t.Errorf("tenant %q admitted %d, want %q with 1", m.Tenant, m.Admitted, DefaultTenant)
	}
	if m.ClockSeconds <= 0 {
		t.Errorf("clock = %g", m.ClockSeconds)
	}
}

func TestTablesEndpoint(t *testing.T) {
	s, ts := testServer(t, nil)
	defaultFlow(t, s) // a tenant has tables once it is instantiated
	resp, err := http.Get(ts.URL + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tables []TableInfo
	if err := json.NewDecoder(resp.Body).Decode(&tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 125 {
		t.Errorf("tables = %d, want 125", len(tables))
	}
}

// TestNoTenantIsDefaultTenant: a request that names no tenant and one
// that names "default" (by query or header) read and write the same state.
func TestNoTenantIsDefaultTenant(t *testing.T) {
	s, ts := testServer(t, nil)
	body := defaultFlow(t, s)
	submitFlow(t, ts, body)
	resp, err := postFlow(ts, DefaultTenant, body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?tenant=default submit status = %d", resp.StatusCode)
	}

	var bare, named MetricsResponse
	getJSON(t, ts.URL+"/v1/metrics", &bare)
	getJSON(t, ts.URL+"/v1/metrics?tenant="+DefaultTenant, &named)
	if bare != named {
		t.Errorf("/v1/metrics without a tenant = %+v, with ?tenant=default = %+v", bare, named)
	}
	if bare.Admitted != 2 {
		t.Errorf("admitted = %d, want both submissions on one tenant", bare.Admitted)
	}
	for _, path := range []string{"/v1/indexes", "/v1/tables", "/debug/events", "/debug/flows/2"} {
		_, a := get(t, ts.URL+path)
		_, b := get(t, ts.URL+path+"?tenant="+DefaultTenant)
		if a != b {
			t.Errorf("GET %s differs between no tenant and ?tenant=default", path)
		}
	}
	if n := len(s.pipe.Tenants()); n != 1 {
		t.Errorf("pipeline holds %d tenants, want only %q", n, DefaultTenant)
	}
}

// tenantFlows crafts n flowlang bodies for the tenant, client-side, from
// the same deterministic database the server instantiates for it.
func tenantFlows(t *testing.T, seed int64, tenant string, n int) []string {
	t.Helper()
	db, err := workload.NewFileDB(qaas.TenantSeed(seed, tenant))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(db, qaas.TenantSeed(seed, tenant))
	out := make([]string, n)
	for i := range out {
		out[i] = flowlang.Marshal(gen.Flow(workload.Montage, i, 0))
	}
	return out
}

func postFlow(ts *httptest.Server, tenant, body string) (*http.Response, error) {
	return http.Post(ts.URL+"/v1/dataflows?tenant="+tenant, "text/plain", strings.NewReader(body))
}

func TestQaaSSubmitAndTenantIsolation(t *testing.T) {
	_, ts := testServer(t, nil)

	for _, body := range tenantFlows(t, 1, "alice", 6) {
		resp, err := postFlow(ts, "alice", body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit status = %d", resp.StatusCode)
		}
		var sr SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if sr.MakespanSeconds <= 0 {
			t.Fatalf("empty result: %+v", sr)
		}
	}

	var aliceIdx []IndexInfo
	getJSON(t, ts.URL+"/v1/indexes?tenant=alice&available=true", &aliceIdx)
	if len(aliceIdx) == 0 {
		t.Fatal("tenant alice adopted no indexes after 6 montage flows")
	}

	// Tenant bob shares the process but none of alice's tuning state.
	var bobIdx []IndexInfo
	getJSON(t, ts.URL+"/v1/indexes?tenant=bob&available=true", &bobIdx)
	if len(bobIdx) != 0 {
		t.Errorf("tenant bob sees %d of alice's indexes", len(bobIdx))
	}
	var bobMetrics MetricsResponse
	getJSON(t, ts.URL+"/v1/metrics?tenant=bob", &bobMetrics)
	if bobMetrics.Admitted != 0 || bobMetrics.VMQuanta != 0 {
		t.Errorf("tenant bob has activity: %+v", bobMetrics)
	}

	// The tenant's tables and per-flow decision traces resolve against its
	// own database and provenance log.
	var tables []TableInfo
	getJSON(t, ts.URL+"/v1/tables?tenant=alice", &tables)
	if len(tables) == 0 {
		t.Error("tenant alice has no tables")
	}
	var trace struct {
		Flow   int `json:"flow"`
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	getJSON(t, ts.URL+"/debug/flows/1?tenant=alice", &trace)
	if trace.Flow != 1 || len(trace.Events) == 0 {
		t.Errorf("flow 1 trace empty: flow=%d events=%d", trace.Flow, len(trace.Events))
	}
	if resp, err := http.Get(ts.URL + "/debug/flows/9999?tenant=alice"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown flow status = %d, want 404", resp.StatusCode)
		}
	}

	// The pipeline snapshot says how full each tenant's provenance ring is.
	var rep qaas.Report
	getJSON(t, ts.URL+"/v1/qaas", &rep)
	if len(rep.Tenants) != 1 || rep.Tenants[0].Tenant != "alice" {
		t.Fatalf("/v1/qaas lists %+v, want tenant alice alone", rep.Tenants)
	}
	if a := rep.Tenants[0]; a.ProvenanceEvents < len(trace.Events) || a.ProvenanceEvents > a.ProvenanceCapacity {
		t.Errorf("/v1/qaas: alice holds %d of %d provenance events, flow 1 alone recorded %d",
			a.ProvenanceEvents, a.ProvenanceCapacity, len(trace.Events))
	}

	// The header route resolves the same way as the query parameter.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/metrics", nil)
	req.Header.Set(TenantHeader, "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var aliceMetrics MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&aliceMetrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if aliceMetrics.Tenant != "alice" || aliceMetrics.Admitted != 6 {
		t.Errorf("header-scoped metrics = %+v, want tenant alice with 6 admissions", aliceMetrics)
	}
}

func TestQaaSBackpressure429(t *testing.T) {
	s, ts := testServer(t, func(cfg *qaas.Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 1
		cfg.TenantInflight = -1
		// Pace executions so the worker is demonstrably busy while the
		// queue fills: ~60ms wall per quantum of makespan.
		cfg.PaceMSPerQuantum = 60
	})

	flows := tenantFlows(t, 1, "hot", 3)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // one executing + one queued
		body := flows[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := postFlow(ts, "hot", body)
			if err != nil {
				t.Errorf("paced submit: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("paced submit status = %d", resp.StatusCode)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.pipe.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := postFlow(ts, "hot", flows[2])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var br BackpressureResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Reason != "queue-full" {
		t.Errorf("reason = %q, want queue-full", br.Reason)
	}
	wg.Wait()
}

// TestQaaSConcurrentSubmissionsAndDebugEvents drives concurrent
// submissions across tenants while hammering the introspection endpoints
// mid-run — the -race coverage for the tenant-scoped read paths — then
// requires a clean /debug/audit verdict.
func TestQaaSConcurrentSubmissionsAndDebugEvents(t *testing.T) {
	s, ts := testServer(t, func(cfg *qaas.Config) {
		cfg.Workers = 4
		cfg.QueueDepth = 32
	})

	tenants := []string{"t0", "t1", "t2"}
	perTenant := 4
	if testing.Short() {
		perTenant = 2
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // introspection load, concurrent with submissions
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, u := range []string{
				"/debug/events?tenant=t0",
				"/debug/events?tenant=t1&kind=money-settled",
				"/v1/qaas",
				"/metrics",
				"/v1/indexes?tenant=t2",
			} {
				resp, err := http.Get(ts.URL + u)
				if err == nil {
					resp.Body.Close()
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for _, tn := range tenants {
		for _, body := range tenantFlows(t, 1, tn, perTenant) {
			tn, body := tn, body
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := postFlow(ts, tn, body)
				if err != nil {
					t.Errorf("tenant %s: %v", tn, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("tenant %s: status %d", tn, resp.StatusCode)
				}
			}()
		}
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	var audit AuditResponse
	getJSON(t, ts.URL+"/debug/audit", &audit)
	if !audit.Clean {
		t.Errorf("audit not clean: %+v", audit.Violations)
	}
	if want := int64(len(tenants) * perTenant); audit.Admitted != want {
		t.Errorf("admitted = %d, want %d", audit.Admitted, want)
	}
	if audit.Executions != int(audit.Admitted) {
		t.Errorf("in-line auditor saw %d executions, admitted %d", audit.Executions, audit.Admitted)
	}
	if got := s.auditor.Executions(); got != int(audit.Admitted) {
		t.Errorf("auditor executions = %d, want %d", got, audit.Admitted)
	}
}

// TestQaaSReadOnlyEndpointsDoNotInstantiateTenants proves that GETs with
// arbitrary tenant strings cannot allocate per-tenant state (the
// memory-exhaustion vector): they serve the natural empty view, and the
// pipeline still holds zero tenants afterwards.
func TestQaaSReadOnlyEndpointsDoNotInstantiateTenants(t *testing.T) {
	s, ts := testServer(t, nil)

	var idx []IndexInfo
	getJSON(t, ts.URL+"/v1/indexes?tenant=ghost-1", &idx)
	if len(idx) != 0 {
		t.Errorf("absent tenant has %d indexes", len(idx))
	}
	var m MetricsResponse
	getJSON(t, ts.URL+"/v1/metrics?tenant=ghost-2", &m)
	if m.Tenant != "ghost-2" || m.Admitted != 0 || m.VMQuanta != 0 {
		t.Errorf("absent tenant metrics = %+v, want zero view", m)
	}
	var tables []TableInfo
	getJSON(t, ts.URL+"/v1/tables?tenant=ghost-3", &tables)
	if len(tables) != 0 {
		t.Errorf("absent tenant has %d tables", len(tables))
	}
	for _, u := range []string{"/debug/events?tenant=ghost-4", "/debug/flows/1?tenant=ghost-5"} {
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Errorf("GET %s: status %d", u, resp.StatusCode)
		}
	}

	if got := len(s.pipe.Tenants()); got != 0 {
		t.Fatalf("read-only endpoints instantiated %d tenants", got)
	}

	// Submission is the only instantiation path, and it validates the name.
	resp, err := postFlow(ts, "no!good", tenantFlows(t, 1, "alice", 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad tenant name submit status = %d, want 400", resp.StatusCode)
	}
	if got := len(s.pipe.Tenants()); got != 0 {
		t.Fatalf("rejected submit instantiated %d tenants", got)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
