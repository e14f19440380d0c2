package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"idxflow/internal/server"
)

// A flow over free-form input paths: it needs no tenant catalog, so the
// answers cannot depend on anything but the flags.
const bareFlow = `flow main-test
input montage0/0
op scan kind=range time=40 reads=montage0/0
op agg kind=aggregate time=10
edge scan -> agg size=4
`

// start builds a server from args and serves it on an ephemeral port until
// the test ends; it returns the server's base URL.
func start(t *testing.T, args ...string) string {
	t.Helper()
	srv, _, _, err := build(args, io.Discard)
	if err != nil {
		t.Fatalf("build %v: %v", args, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln, 5*time.Second, ready) }()
	<-ready
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve %v: %v", args, err)
		}
	})
	return "http://" + ln.Addr().String()
}

// serveArgs builds a server from args, serves it on an ephemeral port,
// submits one dataflow naming no tenant and returns each route's answer.
func serveArgs(t *testing.T, args ...string) map[string]string {
	t.Helper()
	url := start(t, args...)
	out := map[string]string{}
	record := func(route string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		out[route] = resp.Status + "\n" + string(b)
	}
	resp, err := http.Post(url+"/v1/dataflows", "text/plain", strings.NewReader(bareFlow))
	record("POST /v1/dataflows", resp, err)
	for _, path := range []string{
		"/v1/indexes", "/v1/metrics", "/v1/tables",
		"/v1/metrics?tenant=" + server.DefaultTenant,
		"/debug/flows/1", "/debug/audit", "/healthz", "/no-such-route",
	} {
		resp, err := http.Get(url + path)
		record("GET "+path, resp, err)
	}
	return out
}

// TestQaaSFlagIsAcceptedAndIgnored: the benchmark driver still starts the
// server with -qaas; with or without it the server serves the same routes
// with the same answers, and a bare submission lands on tenant "default".
func TestQaaSFlagIsAcceptedAndIgnored(t *testing.T) {
	without := serveArgs(t)
	with := serveArgs(t, "-qaas")
	for route, want := range without {
		if got := with[route]; got != want {
			t.Errorf("%s with -qaas:\n%s\nwithout:\n%s", route, got, want)
		}
	}
	if !strings.HasPrefix(without["POST /v1/dataflows"], "200 ") {
		t.Fatalf("bare submit: %s", without["POST /v1/dataflows"])
	}
	if m := without["GET /v1/metrics"]; !strings.Contains(m, `"tenant":"default"`) ||
		!strings.Contains(m, `"dataflows_admitted":1`) {
		t.Errorf("bare submit did not land on tenant default: %s", m)
	}
	if without["GET /v1/metrics"] != without["GET /v1/metrics?tenant="+server.DefaultTenant] {
		t.Error("/v1/metrics differs between no tenant and ?tenant=default")
	}
}

// TestServersDoNotShareMetrics: each server's /metrics reports that server
// only. A submission to one server does not show in a second server built
// in the same process.
func TestServersDoNotShareMetrics(t *testing.T) {
	first := start(t)
	resp, err := http.Post(first+"/v1/dataflows", "text/plain", strings.NewReader(bareFlow))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit to the first server: %s", resp.Status)
	}

	resp, err = http.Get(start(t) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			samples[name] = value
		}
	}
	if v, ok := samples["idxflow_qaas_admitted_total"]; !ok || v != "0" {
		t.Errorf("second server: idxflow_qaas_admitted_total = %q (listed %v), want 0", v, ok)
	}
	if v, ok := samples["idxflow_flows_submitted_total"]; ok && v != "0" {
		t.Errorf("second server: idxflow_flows_submitted_total = %s, want absent or 0", v)
	}
}

func TestBuildRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-strategy", "nope"}, {"-no-such-flag"}, {"-batch-window", "1ms"}} {
		if _, _, _, err := build(args, io.Discard); err == nil {
			t.Errorf("build %v succeeded, want an error", args)
		}
	}
}

// TestReadmeMetricTableIsTheServersFamilySet: README's "Metric names" table
// lists exactly the families a server exposes once a flow has run, so a
// family added or removed shows here until the table follows it.
func TestReadmeMetricTableIsTheServersFamilySet(t *testing.T) {
	url := start(t)
	resp, err := http.Post(url+"/v1/dataflows", "text/plain", strings.NewReader(bareFlow))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %s", resp.Status)
	}
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	served := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			served[f[2]] = true
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "**Metric names** (prefix `idxflow_`):")
	if !ok {
		t.Fatal(`README has no "**Metric names**" table`)
	}
	listed := map[string]bool{}
	name := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(strings.TrimLeft(table, "\n"), "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			family, _, _ := strings.Cut(m[1], "{")
			listed["idxflow_"+family] = true
		}
	}

	if len(served) == 0 {
		t.Fatal("the scrape lists no family")
	}
	var unlisted, unserved []string
	for f := range served {
		if !listed[f] {
			unlisted = append(unlisted, f)
		}
	}
	for f := range listed {
		if !served[f] {
			unserved = append(unserved, f)
		}
	}
	sort.Strings(unlisted)
	sort.Strings(unserved)
	if len(unlisted) > 0 {
		t.Errorf("served but not in README's metric table: %v", unlisted)
	}
	if len(unserved) > 0 {
		t.Errorf("in README's metric table but not served: %v", unserved)
	}
	t.Logf("%d families served", len(served))
}
