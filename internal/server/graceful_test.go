package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// startServe runs Serve on an ephemeral listener and returns the base URL,
// the cancel triggering shutdown, and a channel with Serve's result.
func startServe(t *testing.T, s *Server) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln, 5*time.Second, ready) }()
	<-ready
	return "http://" + ln.Addr().String(), cancel, done
}

func TestServeDrainsInFlightRequests(t *testing.T) {
	s, _ := testServer(t, nil)
	flow := defaultFlow(t, s)
	url, cancel, done := startServe(t, s)

	// Fire a real dataflow submission — it executes the whole tuning and
	// simulation pipeline, so it is genuinely in flight when the shutdown
	// lands underneath it.
	var wg sync.WaitGroup
	var status int
	var body string
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(url+"/v1/dataflows", "text/plain",
			strings.NewReader(flow))
		if err != nil {
			t.Errorf("in-flight submit failed: %v", err)
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		status, body = resp.StatusCode, string(b)
	}()
	// Let the request reach the handler, then pull the plug.
	time.Sleep(20 * time.Millisecond)
	cancel()

	wg.Wait()
	if status != http.StatusOK {
		t.Errorf("in-flight submit: status %d, body %q — the drain dropped it", status, body)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v after a clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
	// New connections are refused once the listener is closed.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("request after shutdown succeeded; listener still open")
	}
}

// TestServeStopsOnSignal exercises the command's exact wiring — Serve
// driven by signal.NotifyContext — by delivering a real SIGTERM to this
// process.
func TestServeStopsOnSignal(t *testing.T) {
	s, _ := testServer(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	ready := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln, 2*time.Second, ready) }()
	<-ready
	url := "http://" + ln.Addr().String()
	if resp, rerr := http.Get(url + "/healthz"); rerr != nil {
		t.Fatalf("pre-signal request failed: %v", rerr)
	} else {
		resp.Body.Close()
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v after signal-driven shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not stop on SIGTERM")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("request after signal shutdown succeeded; listener still open")
	}
}

// TestSlowHeaderClientIsCutOff: a client that never finishes its request
// headers loses its connection after ReadHeaderTimeout, while a
// well-formed submission arriving meanwhile is served normally.
func TestSlowHeaderClientIsCutOff(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, nil)
	flow := defaultFlow(t, s)
	url, cancel, done := startServe(t, s)
	defer func() {
		cancel()
		<-done
	}()

	slow, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	opened := time.Now()
	// A request line and one header, but never the blank line ending them.
	if _, err := io.WriteString(slow, "POST /v1/dataflows HTTP/1.1\r\nHost: idxflow\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(url+"/v1/dataflows", "text/plain", strings.NewReader(flow))
	if err != nil {
		t.Fatalf("submit beside a stalled client: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("submit beside a stalled client: status %d", resp.StatusCode)
	}

	slow.SetReadDeadline(opened.Add(ReadHeaderTimeout + 5*time.Second))
	_, err = slow.Read(make([]byte, 1))
	var nerr net.Error
	if err == nil || (errors.As(err, &nerr) && nerr.Timeout()) {
		t.Fatalf("stalled connection still open %v after it was opened (read error %v); want the server to close it after %v",
			time.Since(opened), err, ReadHeaderTimeout)
	}
	if held := time.Since(opened); held < ReadHeaderTimeout/2 {
		t.Errorf("stalled connection closed after %v, long before the %v header deadline", held, ReadHeaderTimeout)
	}
}

// TestOversizedHeadersAreRefused: a request whose headers exceed
// MaxHeaderBytes is answered 431 and its connection closed, before a handler
// runs: the tenant it names is never instantiated.
func TestOversizedHeadersAreRefused(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, nil)
	flow := defaultFlow(t, s)
	url, cancel, done := startServe(t, s)
	defer func() {
		cancel()
		<-done
	}()

	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	// net/http allows 4 KiB beyond the limit; two limits' worth is past it.
	// The server may stop reading before the last byte, so a failed write
	// is not the failure: what it answers is.
	io.WriteString(conn, "POST /v1/dataflows HTTP/1.1\r\nHost: idxflow\r\n"+
		TenantHeader+": hog\r\nX-Padding: "+strings.Repeat("x", 2*MaxHeaderBytes)+"\r\n"+
		"Content-Length: "+strconv.Itoa(len(flow))+"\r\n\r\n"+flow)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to oversized headers: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge || !resp.Close {
		t.Errorf("status %d, Connection: close = %v; want 431 and the connection closed", resp.StatusCode, resp.Close)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			t.Errorf("connection still open after the 431")
		}
	}
	if s.pipe.Lookup("hog") != nil {
		t.Error("the refused request instantiated the tenant it named")
	}
}

// TestSubmitBodyStatus: what is wrong with a body decides the status. A
// syntax error is a 400 naming its line, an over-long line included; a body
// over maxBodyBytes is a 413, not a syntax error; a body with no announced
// length is read like any other.
func TestSubmitBodyStatus(t *testing.T) {
	t.Parallel()
	s, _ := testServer(t, nil)
	flow := defaultFlow(t, s)
	for _, tc := range []struct {
		name   string
		body   io.Reader
		status int
		want   string // in the response body
	}{
		{"valid", strings.NewReader(flow), http.StatusOK, `"flow":"api-test"`},
		{"valid, chunked", io.MultiReader(strings.NewReader(flow)), http.StatusOK, `"flow":"api-test"`},
		{"syntax error", strings.NewReader(flow + "zap\n"), http.StatusBadRequest, "line 8: unknown directive"},
		{"line of 1 MiB", strings.NewReader(flow + "#" + strings.Repeat("x", 1<<20-1)), http.StatusBadRequest, "flowlang: line 8: line of 1048576 bytes"},
		{"body over the limit", strings.NewReader(flow + strings.Repeat("# padding\n", maxBodyBytes/10)), http.StatusRequestEntityTooLarge, "request body too large"},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/dataflows", tc.body))
		if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: status %d, body %q; want %d with %q", tc.name, rec.Code, rec.Body.String(), tc.status, tc.want)
		}
	}
}
