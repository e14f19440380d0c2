package server

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"idxflow/internal/core"
	"idxflow/internal/workload"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestPrometheusEndpoint(t *testing.T) {
	s, ts := testServer(t, nil)
	submitFlow(t, ts, defaultFlow(t, s))

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"idxflow_flow_makespan_seconds_count 1",
		"# TYPE idxflow_flow_makespan_seconds histogram",
		"idxflow_flow_makespan_seconds_bucket{le=\"+Inf\"} 1",
		"idxflow_idle_slot_seconds_total",
		"idxflow_http_requests_total{route=\"POST /v1/dataflows\"} 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The executor has no input-read model, so no family may pretend to
	// count one: a metric that can only read 0 is not exposed.
	for _, gone := range []string{"idxflow_cache_", "idxflow_sim_transferred_mb_total"} {
		if strings.Contains(text, gone) {
			t.Errorf("exposition still lists %s*, which nothing can move", gone)
		}
	}
	// Every line must be a comment or a sample ending in a numeric value
	// (label values may themselves contain spaces).
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("sample %q has non-numeric value: %v", line, err)
		}
	}
}

// TestConcurrentSubmitAndScrape hammers submissions and scrapes in
// parallel; run with -race it verifies the tenant-locked service access and
// the registry's internal synchronization.
func TestConcurrentSubmitAndScrape(t *testing.T) {
	s, ts := testServer(t, nil)
	body := defaultFlow(t, s)
	const submitters, scrapers, rounds = 4, 4, 5

	var wg sync.WaitGroup
	errs := make(chan error, submitters*rounds+scrapers*rounds*3)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				resp, err := http.Post(ts.URL+"/v1/dataflows", "text/plain", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				for _, path := range []string{"/metrics", "/v1/metrics", "/v1/indexes"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	text := func() string {
		_, body := get(t, ts.URL+"/metrics")
		return body
	}()
	want := "idxflow_flow_makespan_seconds_count 20"
	if !strings.Contains(text, want) {
		t.Errorf("after %d submissions, exposition missing %q", submitters*rounds, want)
	}
}

// TestTenantStateIsServedPerTenant: the registry behind /metrics is shared
// by every tenant, so it holds no one tenant's state and no family that
// restates another. Two tenants settle with different index footprints,
// /metrics lists none of the retired families, and each tenant's
// /v1/metrics reports its own service's clock, available indexes and
// footprint.
func TestTenantStateIsServedPerTenant(t *testing.T) {
	s, ts := testServer(t, nil)
	for tenant, n := range map[string]int{"a": 4, "b": 1} {
		for _, body := range tenantFlows(t, 1, tenant, n) {
			resp, err := postFlow(ts, tenant, body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("tenant %s: submit status = %d", tenant, resp.StatusCode)
			}
		}
	}

	_, text := get(t, ts.URL+"/metrics")
	for _, family := range []string{
		// The tenant's state: served by /v1/metrics.
		"idxflow_service_clock_seconds",
		"idxflow_indexes_available",
		"idxflow_storage_mb",
		"idxflow_storage_files",
		// Re-counts of idxflow_flow_makespan_seconds_count,
		// idxflow_flow_quanta_sum,
		// idxflow_index_estimated_gain_count and
		// idxflow_qaas_admission_latency_seconds_count.
		"idxflow_flows_finished_total",
		"idxflow_quanta_charged_total",
		"idxflow_build_ops_offered_total",
		"idxflow_qaas_admitted_total",
	} {
		if regexp.MustCompile(`(?m)^(# (HELP|TYPE) )?` + family + `[ {]`).MatchString(text) {
			t.Errorf("/metrics lists %s", family)
		}
	}

	footprints := map[float64]bool{}
	for _, tenant := range []string{"a", "b"} {
		var got MetricsResponse
		getJSON(t, ts.URL+"/v1/metrics?tenant="+tenant, &got)
		tn, err := s.pipe.Tenant(tenant)
		if err != nil {
			t.Fatal(err)
		}
		var want MetricsResponse
		tn.Do(func(svc *core.Service, _ *workload.FileDB) {
			want.ClockSeconds = svc.Clock()
			want.IndexesAvailable = svc.Catalog().AvailableCount()
			want.IndexStorageMB, want.IndexStorageFiles = svc.Catalog().Footprint()
		})
		if got.ClockSeconds != want.ClockSeconds || got.IndexesAvailable != want.IndexesAvailable ||
			got.IndexStorageMB != want.IndexStorageMB || got.IndexStorageFiles != want.IndexStorageFiles {
			t.Errorf("tenant %s: /v1/metrics reports clock %g, %d indexes, %g MB in %d files; its service holds %g, %d, %g MB in %d",
				tenant, got.ClockSeconds, got.IndexesAvailable, got.IndexStorageMB, got.IndexStorageFiles,
				want.ClockSeconds, want.IndexesAvailable, want.IndexStorageMB, want.IndexStorageFiles)
		}
		footprints[want.IndexStorageMB] = true
	}
	if len(footprints) != 2 {
		t.Errorf("tenants a and b hold the same footprint %v; the check cannot tell them apart", footprints)
	}
}

// TestReadmeRouteTableIsTheServersMux: README's "Routes" table lists exactly
// the patterns Handler mounts, and a request to each listed route is counted
// under its own pattern, so a route added or removed shows here until the
// table follows it.
func TestReadmeRouteTableIsTheServersMux(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "**Routes**")
	if !ok {
		t.Fatal(`README has no "**Routes**" table`)
	}
	listed := map[string]bool{}
	pattern := regexp.MustCompile("^`([^`]+)`$")
	inTable := false
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		if m := pattern.FindStringSubmatch(strings.TrimSpace(strings.Split(line, "|")[1])); m != nil {
			listed[m[1]] = true
		}
	}
	mounted := map[string]bool{}
	for _, rt := range routes {
		mounted[rt.pattern] = true
	}
	for p := range mounted {
		if !listed[p] {
			t.Errorf("mounted but not in README's route table: %q", p)
		}
	}
	for p := range listed {
		if !mounted[p] {
			t.Errorf("in README's route table but not mounted: %q", p)
		}
	}

	_, ts := testServer(t, nil)
	for p := range listed {
		method, path, _ := strings.Cut(p, " ")
		req, err := http.NewRequest(method, ts.URL+strings.ReplaceAll(path, "{id}", "1"), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	_, text := get(t, ts.URL+"/metrics")
	for p := range listed {
		if !strings.Contains(text, `idxflow_http_requests_total{route="`+p+`"}`) {
			t.Errorf("a request to %q is not counted under its pattern", p)
		}
	}
	if len(listed) == 0 {
		t.Fatal("README's route table lists no route")
	}
}
