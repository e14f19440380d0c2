// Package server exposes the QaaS service over HTTP — the front door of
// the Fig. 1 architecture: users submit dataflows, the service executes
// them with online index tuning, and operational state (index set, metrics,
// tables, decision provenance) is inspectable.
//
// Endpoints:
//
//	POST /v1/dataflows       submit one dataflow in flowlang format
//	GET  /v1/indexes         the tenant's index states
//	GET  /v1/metrics         the tenant's service counters (JSON)
//	GET  /v1/tables          the tenant's catalog tables
//	GET  /v1/qaas            pipeline-wide snapshot: queue, fleet, books
//	GET  /metrics            Prometheus text exposition of the telemetry registry
//	GET  /debug/events       the tenant's decision-provenance log (JSONL)
//	GET  /debug/flows/{id}   one dataflow's decision chain
//	GET  /debug/audit        accounting verdict (check.AuditQaaS + in-line audits)
//	GET  /healthz            liveness
//
// Every submission flows through the qaas admission pipeline. A request
// names its tenant with ?tenant= or the X-Idxflow-Tenant header; one that
// names none lands on tenant "default", so a single-user client needs no
// tenant at all. Within a tenant the service processes dataflows
// sequentially (§3) behind the tenant's lock; the telemetry registry is
// internally synchronized, so /metrics scrapes never block a running
// submission.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"idxflow/internal/check"
	"idxflow/internal/core"
	"idxflow/internal/data"
	"idxflow/internal/flowlang"
	"idxflow/internal/provenance"
	"idxflow/internal/qaas"
	"idxflow/internal/workload"
)

// Server wraps a qaas.Pipeline with an HTTP API.
type Server struct {
	pipe *qaas.Pipeline
	// auditor optionally collects a per-execution check.Audit verdict
	// surfaced at /debug/audit.
	auditor *check.ExecAuditor

	mu    sync.Mutex // guards flush
	flush []func()
}

// OnShutdown registers a hook that Serve runs after the graceful drain
// completes — after the last in-flight submission has finished, so flushing
// the span tracer or the flight recorder to disk sees the final state.
// Hooks run in registration order.
func (s *Server) OnShutdown(fn func()) {
	s.mu.Lock()
	s.flush = append(s.flush, fn)
	s.mu.Unlock()
}

// runShutdownHooks executes the registered hooks once the server has
// drained.
func (s *Server) runShutdownHooks() {
	s.mu.Lock()
	hooks := s.flush
	s.flush = nil
	s.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// NewQaaS returns a server over the given admission pipeline. auditor may
// be nil; when set, its Hook is the PostExec of the pipeline's Core, so every
// execution is audited, and /debug/audit reports the verdict.
func NewQaaS(p *qaas.Pipeline, auditor *check.ExecAuditor) *Server {
	return &Server{pipe: p, auditor: auditor}
}

// routes are the server's routes, one (pattern, handler) pair each; README's
// route table lists exactly these patterns.
var routes = []struct {
	pattern string
	handle  func(*Server, http.ResponseWriter, *http.Request)
}{
	{"POST /v1/dataflows", (*Server).handleSubmit},
	{"GET /v1/indexes", (*Server).handleIndexes},
	{"GET /v1/metrics", (*Server).handleMetrics},
	{"GET /v1/tables", (*Server).handleTables},
	{"GET /v1/qaas", (*Server).handleQaaSReport},
	{"GET /debug/events", (*Server).handleEvents},
	{"GET /debug/flows/{id}", (*Server).handleFlow},
	{"GET /debug/audit", (*Server).handleAudit},
	{"GET /metrics", (*Server).handlePrometheus},
	{"GET /healthz", func(_ *Server, w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ok") }},
}

// Handler returns the HTTP handler with all routes mounted.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) })
	}
	reqs := s.pipe.Telemetry().CounterVec("idxflow_http_requests_total",
		"HTTP requests served, by route pattern.", "route")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := mux.Handler(r); pattern != "" {
			reqs.With(pattern).Inc()
		} else {
			reqs.With("unmatched").Inc()
		}
		mux.ServeHTTP(w, r)
	})
}

// handlePrometheus renders the service's telemetry registry in the
// Prometheus text exposition format. The registry synchronizes itself, so
// no server lock is taken and scrapes cannot delay submissions.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.pipe.Telemetry().WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// TenantHeader carries the tenant identifier when the ?tenant= query
// parameter is absent.
const TenantHeader = "X-Idxflow-Tenant"

// DefaultTenant is used when a request names no tenant at all, so a
// single-user client never has to mention one.
const DefaultTenant = "default"

// tenantOf resolves the request's tenant: ?tenant= wins, then the
// X-Idxflow-Tenant header, then "default".
func tenantOf(r *http.Request) string {
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// lookupTenant resolves the request's tenant state without instantiating
// it: tenant names are untrusted input and each instantiation allocates a
// full file database, service and provenance ring, so read-only endpoints
// must never create one. A nil result means "no state yet" — handlers
// render the natural empty view, which is also what a just-created tenant
// would show.
func (s *Server) lookupTenant(r *http.Request) *qaas.Tenant {
	return s.pipe.Lookup(tenantOf(r))
}

// recorder returns the tenant's flight recorder, or nil (which reads as an
// empty log) when the tenant has no state yet.
func (s *Server) recorder(r *http.Request) *provenance.Recorder {
	if t := s.lookupTenant(r); t != nil {
		return t.Recorder()
	}
	return nil
}

// SubmitResponse is the JSON result of a dataflow submission.
type SubmitResponse struct {
	Flow            string   `json:"flow"`
	StartSeconds    float64  `json:"start_seconds"`
	EndSeconds      float64  `json:"end_seconds"`
	MakespanSeconds float64  `json:"makespan_seconds"`
	MoneyQuanta     float64  `json:"money_quanta"`
	IndexesUsed     []string `json:"indexes_used"`
	BuildsCompleted int      `json:"builds_completed"`
	BuildsKilled    int      `json:"builds_killed"`
	IndexesDeleted  []string `json:"indexes_deleted"`
}

// BackpressureResponse is the 429 body for rejected admissions.
type BackpressureResponse struct {
	Error             string  `json:"error"`
	Reason            string  `json:"reason"`
	RetryAfterSeconds float64 `json:"retry_after_seconds"`
}

// maxBodyBytes is the largest dataflow body handleSubmit reads; a larger
// one is answered 413.
const maxBodyBytes = 8 << 20

// sizedBody is a request body that tells flowlang.Parse how large a buffer
// to read it into: its Content-Length, which is the client's claim, so
// never more than 1 MiB up front, and nothing for a chunked body. Parse
// grows the buffer when the body turns out longer.
type sizedBody struct {
	io.Reader
	contentLength int64
}

func (b sizedBody) Len() int { return int(min(max(b.contentLength, 0), 1<<20)) }

// handleSubmit admits one dataflow through the concurrent pipeline and
// blocks until its Algorithm-1 pass completes. A body that does not parse
// is answered 400 with the line of the error, one over maxBodyBytes 413.
// Backpressure surfaces as
// HTTP 429 with a Retry-After header (whole seconds, rounded up per RFC
// 9110); a client that disconnects while queued gets its execution
// abandoned uncharged.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	flow, err := flowlang.Parse(sizedBody{http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength})
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	case err != nil:
		// A *flowlang.ParseError, an invalid graph, or a body the client
		// stopped sending.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tenant := tenantOf(r)
	res, err := s.pipe.Submit(r.Context(), tenant, flow)
	var bp *qaas.BackpressureError
	switch {
	case errors.Is(err, qaas.ErrTenantName):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.As(err, &bp):
		secs := int(math.Ceil(bp.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, BackpressureResponse{
			Error:             bp.Error(),
			Reason:            bp.Reason,
			RetryAfterSeconds: bp.RetryAfter.Seconds(),
		})
		return
	case err != nil:
		// Context cancellation (client gone), tenant capacity reached, or
		// tenant bootstrap failure.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{
		Flow:            res.Name,
		StartSeconds:    res.Start,
		EndSeconds:      res.End,
		MakespanSeconds: res.Makespan,
		MoneyQuanta:     res.MoneyQuanta,
		IndexesUsed:     orEmpty(res.IndexesUsed),
		BuildsCompleted: res.BuildsCompleted,
		BuildsKilled:    res.BuildsKilled,
		IndexesDeleted:  orEmpty(res.Deleted),
	})
}

// IndexInfo is the JSON view of one index state.
type IndexInfo struct {
	Name          string  `json:"name"`
	Table         string  `json:"table"`
	BuiltCount    int     `json:"built_partitions"`
	TotalCount    int     `json:"total_partitions"`
	BuiltSizeMB   float64 `json:"built_size_mb"`
	Available     bool    `json:"available"`
	FullSizeMB    float64 `json:"full_size_mb"`
	BuiltFraction float64 `json:"built_fraction"`
}

// indexInfos renders the catalog's index states; the caller holds
// whatever lock guards the catalog.
func indexInfos(cat *data.Catalog, onlyAvailable bool) []IndexInfo {
	out := []IndexInfo{}
	for _, name := range cat.IndexNames() {
		st := cat.State(name)
		if onlyAvailable && st.BuiltCount() == 0 {
			continue
		}
		out = append(out, IndexInfo{
			Name:          name,
			Table:         st.Index.Table.Name,
			BuiltCount:    st.BuiltCount(),
			TotalCount:    len(st.Index.Table.Partitions),
			BuiltSizeMB:   st.BuiltSizeMB(),
			Available:     st.BuiltCount() > 0,
			FullSizeMB:    st.Index.SizeMB(),
			BuiltFraction: st.BuiltFraction(),
		})
	}
	return out
}

func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	onlyAvailable := r.URL.Query().Get("available") == "true"
	out := []IndexInfo{}
	if t := s.lookupTenant(r); t != nil {
		t.Do(func(svc *core.Service, db *workload.FileDB) {
			out = indexInfos(svc.Catalog(), onlyAvailable)
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// MetricsResponse is the tenant-scoped /v1/metrics view: the tenant's
// service state, which /metrics does not carry because its registry is
// shared by every tenant.
type MetricsResponse struct {
	Tenant            string  `json:"tenant"`
	ClockSeconds      float64 `json:"clock_seconds"`
	Admitted          int64   `json:"dataflows_admitted"`
	IndexesAvailable  int     `json:"indexes_available"`
	IndexStorageMB    float64 `json:"index_storage_mb"`
	IndexStorageFiles int     `json:"index_storage_files"`
	VMQuanta          float64 `json:"vm_quanta"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{Tenant: tenantOf(r)}
	if t := s.lookupTenant(r); t != nil {
		resp.Admitted = t.Admitted()
		t.Do(func(svc *core.Service, db *workload.FileDB) {
			resp.ClockSeconds = svc.Clock()
			resp.IndexesAvailable = svc.Catalog().AvailableCount()
			resp.IndexStorageMB, resp.IndexStorageFiles = svc.Catalog().Footprint()
			resp.VMQuanta = svc.Aggregates().VMQuanta
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// TableInfo is the JSON view of one catalog table.
type TableInfo struct {
	Name       string  `json:"name"`
	Partitions int     `json:"partitions"`
	Records    int64   `json:"records"`
	SizeMB     float64 `json:"size_mb"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	out := []TableInfo{}
	if t := s.lookupTenant(r); t != nil {
		t.Do(func(svc *core.Service, db *workload.FileDB) {
			for _, f := range db.Files {
				out = append(out, TableInfo{
					Name:       f.Table.Name,
					Partitions: len(f.Table.Partitions),
					Records:    f.Table.NumRecords(),
					SizeMB:     f.Table.SizeMB(),
				})
			}
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleQaaSReport exposes the pipeline-wide snapshot: queue depth, fleet
// occupancy, global and per-tenant books, admission counters.
func (s *Server) handleQaaSReport(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.pipe.Summary())
}

// AuditResponse is the /debug/audit verdict.
type AuditResponse struct {
	Clean      bool     `json:"clean"`
	Violations []string `json:"violations"`
	// Executions is how many executions the in-line auditor has checked
	// (-1 when no auditor is installed).
	Executions int   `json:"executions"`
	Admitted   int64 `json:"admitted"`
	Rejected   int64 `json:"rejected"`
	InFlight   int64 `json:"in_flight"`
}

// handleAudit runs check.AuditQaaS on a fresh pipeline snapshot, merges
// the in-line execution auditor's verdict, and reports every violation.
// The books are only exactly balanced when nothing is in flight; run it
// against a quiesced (or drained) pipeline for a binding verdict.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	rep := s.pipe.Report()
	resp := AuditResponse{
		Clean:      true,
		Violations: []string{},
		Executions: -1,
		Admitted:   rep.Admitted,
		Rejected:   rep.Rejected,
		InFlight:   rep.InFlight,
	}
	if err := check.AuditQaaS(rep); err != nil {
		resp.Clean = false
		resp.Violations = append(resp.Violations, err.Error())
	}
	if s.auditor != nil {
		resp.Executions = s.auditor.Executions()
		if err := s.auditor.Err(); err != nil {
			resp.Clean = false
			resp.Violations = append(resp.Violations, err.Error())
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	// Encode before the status line goes out, so a value that cannot be
	// encoded (a NaN float) is a 500, not a 200 with an error for a body.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

func orEmpty(s []string) []string {
	if s == nil {
		return []string{}
	}
	return s
}
