package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"idxflow/internal/provenance"
)

func getEvents(t *testing.T, url string) (provenance.Header, []provenance.Event, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return provenance.Header{}, nil, resp.StatusCode
	}
	dec := json.NewDecoder(resp.Body)
	var h provenance.Header
	if err := dec.Decode(&h); err != nil {
		t.Fatalf("parse %s: header line: %v", url, err)
	}
	var events []provenance.Event
	for dec.More() {
		var e provenance.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("parse %s: event line %d: %v", url, len(events), err)
		}
		events = append(events, e)
	}
	return h, events, resp.StatusCode
}

func TestDebugEventsEndpoint(t *testing.T) {
	s, ts := testServer(t, nil)
	body := defaultFlow(t, s)
	submitFlow(t, ts, body)
	submitFlow(t, ts, body)

	h, events, status := getEvents(t, ts.URL+"/debug/events")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if h.Format != provenance.FormatName {
		t.Errorf("header format = %q", h.Format)
	}
	if len(events) == 0 {
		t.Fatal("no events after two submissions")
	}
	if h.Total != uint64(len(events)) {
		t.Errorf("header total %d != %d events served", h.Total, len(events))
	}

	// kind filter keeps only that kind — and both admissions are there.
	_, admitted, _ := getEvents(t, ts.URL+"/debug/events?kind=flow-admitted")
	if len(admitted) != 2 {
		t.Errorf("kind=flow-admitted returned %d events, want 2", len(admitted))
	}
	for _, e := range admitted {
		if e.Kind != provenance.KindFlowAdmitted {
			t.Errorf("kind filter leaked a %s event", e.Kind)
		}
	}

	// flow filter keeps only that dataflow's events.
	_, flow2, _ := getEvents(t, ts.URL+"/debug/events?flow=2")
	if len(flow2) == 0 {
		t.Error("flow=2 returned nothing")
	}
	for _, e := range flow2 {
		if e.Flow != 2 {
			t.Errorf("flow filter leaked flow %d", e.Flow)
		}
	}

	// limit keeps the last N events.
	_, tail, _ := getEvents(t, ts.URL+"/debug/events?limit=3")
	if len(tail) != 3 {
		t.Fatalf("limit=3 returned %d events", len(tail))
	}
	if tail[len(tail)-1].Seq != events[len(events)-1].Seq {
		t.Error("limit did not keep the newest events")
	}

	// All three together: the last two of flow 2's events of one kind, as
	// picking them out of the full dump by hand gives.
	var want []uint64
	for _, e := range events {
		if e.Flow == 2 && e.Kind == flow2[len(flow2)-1].Kind {
			want = append(want, e.Seq)
		}
	}
	_, both, _ := getEvents(t, ts.URL+"/debug/events?flow=2&limit=2&kind="+flow2[len(flow2)-1].Kind.String())
	if len(want) > 2 {
		want = want[len(want)-2:]
	}
	if len(both) != len(want) {
		t.Fatalf("flow+kind+limit returned %d events, want %d", len(both), len(want))
	}
	for i, e := range both {
		if e.Seq != want[i] {
			t.Errorf("flow+kind+limit event %d has seq %d, want %d", i, e.Seq, want[i])
		}
	}
	if _, none, status := getEvents(t, ts.URL+"/debug/events?limit=0"); status != http.StatusOK || len(none) != 0 {
		t.Errorf("limit=0 returned %d events with status %d, want none and 200", len(none), status)
	}

	for _, bad := range []string{"?kind=no-such-kind", "?flow=x", "?limit=-1"} {
		if _, _, status := getEvents(t, ts.URL+"/debug/events"+bad); status != http.StatusBadRequest {
			t.Errorf("GET /debug/events%s: status %d, want 400", bad, status)
		}
	}
}

// TestDebugFlowTrace checks the acceptance property: /debug/flows/{id}
// returns the complete decision chain for a dataflow in causal order.
func TestDebugFlowTrace(t *testing.T) {
	s, ts := testServer(t, nil)
	body := defaultFlow(t, s)
	submitFlow(t, ts, body)
	submitFlow(t, ts, body)

	resp, err := http.Get(ts.URL + "/debug/flows/1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var trace FlowTrace
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	if trace.Flow != 1 {
		t.Errorf("trace flow = %d", trace.Flow)
	}
	pos := map[provenance.Kind]int{}
	for i, e := range trace.Events {
		if e.Flow != 1 {
			t.Errorf("trace contains flow %d event", e.Flow)
		}
		if i > 0 && e.Seq <= trace.Events[i-1].Seq {
			t.Errorf("trace not in causal order at position %d", i)
		}
		if _, seen := pos[e.Kind]; !seen {
			pos[e.Kind] = i
		}
	}
	// The chain is complete: admission, then the skyline choice, then the
	// settlement — in that causal order.
	for _, k := range []provenance.Kind{provenance.KindFlowAdmitted, provenance.KindFlowScheduled, provenance.KindMoneySettled} {
		if _, ok := pos[k]; !ok {
			t.Fatalf("trace missing %s event", k)
		}
	}
	if !(pos[provenance.KindFlowAdmitted] < pos[provenance.KindFlowScheduled] &&
		pos[provenance.KindFlowScheduled] < pos[provenance.KindMoneySettled]) {
		t.Error("lifecycle events out of causal order")
	}

	for path, want := range map[string]int{
		"/debug/flows/99": http.StatusNotFound,
		"/debug/flows/0":  http.StatusBadRequest,
		"/debug/flows/x":  http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestOnShutdownRunsAfterDrain checks the flush hooks fire exactly once,
// in registration order, after the graceful drain completes.
func TestOnShutdownRunsAfterDrain(t *testing.T) {
	s, _ := testServer(t, nil)
	var order []string
	s.OnShutdown(func() { order = append(order, "tracer") })
	s.OnShutdown(func() { order = append(order, "events") })

	_, cancel, done := startServe(t, s)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return")
	}
	// Serve has returned, so the hooks must have run already (no races:
	// Serve runs them before returning).
	if len(order) != 2 || order[0] != "tracer" || order[1] != "events" {
		t.Fatalf("shutdown hooks ran as %v, want [tracer events]", order)
	}
}
