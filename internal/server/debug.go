package server

import (
	"net/http"
	"strconv"

	"idxflow/internal/provenance"
)

// handleEvents streams the tenant's flight recorder contents as JSONL —
// one header line, then one event per line — optionally filtered:
//
//	GET /debug/events?kind=index-adopted   only events of that kind
//	GET /debug/events?flow=3               only events of that dataflow
//	GET /debug/events?limit=100            only the last N matching events
//
// Only the selected events are copied, under the recorder's own lock; the
// tenant lock is not held, so a long-running submission never blocks
// introspection.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rec := s.recorder(r)

	q := r.URL.Query()
	var f provenance.Filter
	if ks := q.Get("kind"); ks != "" {
		kind, err := provenance.ParseKind(ks)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.ByKind, f.Kind = true, kind
	}
	if fs := q.Get("flow"); fs != "" {
		id, err := strconv.ParseUint(fs, 10, 64)
		if err != nil {
			http.Error(w, "flow must be a non-negative integer", http.StatusBadRequest)
			return
		}
		f.ByFlow, f.Flow = true, provenance.FlowID(id)
	}
	last := -1
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
			return
		}
		last = n
	}
	events := rec.Select(f, last)

	w.Header().Set("Content-Type", "application/jsonl")
	if err := provenance.WriteLog(w, rec.NewHeader(), events); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// FlowTrace is the JSON response of /debug/flows/{id}: the complete
// causally-ordered decision chain the tuner recorded for one dataflow.
type FlowTrace struct {
	Flow   provenance.FlowID  `json:"flow"`
	Events []provenance.Event `json:"events"`
}

// handleFlow returns every event the tenant's recorder attributes to the
// dataflow, in causal (sequence) order. 404 means the flow recorded
// nothing — unknown ID or tenant, or the events already rotated out of the
// ring.
func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil || id == 0 {
		http.Error(w, "flow id must be a positive integer", http.StatusBadRequest)
		return
	}
	events := s.recorder(r).FlowEvents(provenance.FlowID(id))
	if len(events) == 0 {
		http.Error(w, "no events recorded for this flow", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, FlowTrace{Flow: provenance.FlowID(id), Events: events})
}
