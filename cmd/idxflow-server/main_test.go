package main

import (
	"context"
	"io"
	"net"
	"net/http"
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

// serveArgs builds a server from args, serves it on an ephemeral port,
// submits one dataflow naming no tenant and returns each route's answer.
func serveArgs(t *testing.T, args ...string) map[string]string {
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
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve %v: %v", args, err)
		}
	}()

	url := "http://" + ln.Addr().String()
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
		"/v1/indexes", "/v1/metrics", "/metrics.json", "/v1/tables",
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

func TestBuildRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-strategy", "nope"}, {"-no-such-flag"}, {"-batch-window", "1ms"}} {
		if _, _, _, err := build(args, io.Discard); err == nil {
			t.Errorf("build %v succeeded, want an error", args)
		}
	}
}
