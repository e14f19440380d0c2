// Command idxflow-loadgen drives an idxflow-server with concurrent
// dataflow submissions across many tenants and reports
// throughput (dataflows/sec) and admission-to-completion latency
// quantiles (p50/p95/p99).
//
// Each tenant's dataflows are generated client-side from the same
// deterministic database the server instantiates for it (the shared
// qaas.TenantSeed derivation), so every submission references real
// catalog partitions and potential indexes.
//
// Two loops:
//
//   - closed (default): -conns concurrent clients each submit, wait for
//     completion, then submit the next flow; HTTP 429 responses honor the
//     server's Retry-After before retrying the same flow.
//   - open: submissions fire at a fixed aggregate -rate regardless of
//     completions; 429 responses count as rejected, nothing is retried.
//
// With -audit the run finishes by asking the server for its accounting
// verdict (GET /debug/audit: check.AuditQaaS books/fleet balance plus the
// in-line per-execution check.Audit) and exits non-zero on violations.
//
// Usage:
//
//	idxflow-loadgen [-addr http://127.0.0.1:8080] [-tenants 8] [-n 10000]
//	                [-conns 64] [-mode closed] [-rate 200] [-seed 1]
//	                [-audit] [-min-admitted 0] [-json summary.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idxflow/internal/flowlang"
	"idxflow/internal/profiling"
	"idxflow/internal/qaas"
	"idxflow/internal/telemetry"
	"idxflow/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "server base URL")
		tenants     = flag.Int("tenants", 8, "number of tenants to spread submissions across")
		n           = flag.Int("n", 10000, "total submissions")
		conns       = flag.Int("conns", 64, "closed-loop concurrent clients")
		mode        = flag.String("mode", "closed", "closed | open")
		rate        = flag.Float64("rate", 200, "open-loop aggregate submissions per second")
		seed        = flag.Int64("seed", 1, "base workload seed (must match the server's -seed)")
		timeout     = flag.Duration("timeout", 5*time.Minute, "per-request timeout")
		audit       = flag.Bool("audit", false, "fetch /debug/audit after the run and fail on violations")
		minAdmitted = flag.Int64("min-admitted", 0, "fail unless at least this many submissions were admitted")
		jsonOut     = flag.String("json", "", "write the summary as JSON to this file")
	)
	flag.Parse()
	if *tenants < 1 || *n < 1 || *conns < 1 {
		log.Fatal("idxflow-loadgen: -tenants, -n and -conns must be positive")
	}
	if *mode != "closed" && *mode != "open" {
		log.Fatalf("idxflow-loadgen: unknown mode %q", *mode)
	}

	log.Printf("idxflow-loadgen: generating %d dataflows for %d tenants (seed %d)", *n, *tenants, *seed)
	bodies, tenantOf := generate(*seed, *tenants, *n)

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *conns * 2,
			MaxIdleConnsPerHost: *conns * 2,
		},
	}
	lg := &loadgen{
		client: client,
		base:   strings.TrimRight(*addr, "/"),
		hist: telemetry.NewRegistry().Histogram("loadgen_latency_seconds",
			"Admission-to-completion latency.",
			telemetry.ExponentialBuckets(0.0005, 2, 26)),
	}

	log.Printf("idxflow-loadgen: %s loop, %d conns against %s", *mode, *conns, lg.base)
	start := time.Now()
	switch *mode {
	case "closed":
		lg.closedLoop(bodies, tenantOf, *conns)
	case "open":
		lg.openLoop(bodies, tenantOf, *rate)
	}
	wall := time.Since(start).Seconds()

	s := Summary{
		Mode:            *mode,
		Tenants:         *tenants,
		Requested:       *n,
		Admitted:        lg.admitted.Load(),
		Rejected:        lg.rejected.Load(),
		Retries:         lg.retries.Load(),
		Errors:          lg.errors.Load(),
		WallSeconds:     wall,
		DataflowsPerSec: float64(lg.admitted.Load()) / wall,
		P50Seconds:      lg.hist.Quantile(0.50),
		P95Seconds:      lg.hist.Quantile(0.95),
		P99Seconds:      lg.hist.Quantile(0.99),
	}
	if c := lg.hist.Count(); c > 0 {
		s.MeanSeconds = lg.hist.Sum() / float64(c)
	}

	if q, err := lg.fetchQaaS(); err != nil {
		log.Printf("idxflow-loadgen: /v1/qaas fetch failed (warm stats omitted): %v", err)
	} else {
		s.Warm = &q.Warm
	}

	fail := false
	if *audit {
		verdict, err := lg.fetchAudit()
		if err != nil {
			log.Printf("idxflow-loadgen: audit fetch failed: %v", err)
			fail = true
		} else {
			s.Audit = verdict
			if !verdict.Clean {
				log.Printf("idxflow-loadgen: AUDIT VIOLATIONS:\n%s", strings.Join(verdict.Violations, "\n"))
				fail = true
			}
		}
	}

	s.print(os.Stdout)
	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, s); err != nil {
			log.Fatalf("idxflow-loadgen: writing %s: %v", *jsonOut, err)
		}
		log.Printf("idxflow-loadgen: summary -> %s", *jsonOut)
	}
	if s.Errors > 0 {
		log.Printf("idxflow-loadgen: %d transport/protocol errors", s.Errors)
		fail = true
	}
	if s.Admitted < *minAdmitted {
		log.Printf("idxflow-loadgen: admitted %d < required %d", s.Admitted, *minAdmitted)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}

// generate pre-marshals every submission body. Flow i goes to tenant
// i%tenants; each tenant's generator runs over its own TenantSeed
// database, matching the server's per-tenant state, and cycles through
// the paper's application mix.
func generate(seed int64, tenants, n int) (bodies []string, tenantOf []string) {
	bodies = make([]string, n)
	tenantOf = make([]string, n)
	type tstate struct {
		name string
		gen  *workload.Generator
		seq  int
	}
	states := make([]*tstate, tenants)
	for i := range states {
		name := fmt.Sprintf("tenant-%02d", i)
		ts := qaas.TenantSeed(seed, name)
		db, err := workload.NewFileDB(ts)
		if err != nil {
			log.Fatalf("idxflow-loadgen: tenant %s: %v", name, err)
		}
		states[i] = &tstate{name: name, gen: workload.NewGenerator(db, ts)}
	}
	for i := 0; i < n; i++ {
		st := states[i%tenants]
		app := workload.Apps[st.seq%len(workload.Apps)]
		bodies[i] = flowlang.Marshal(st.gen.Flow(app, st.seq, 0))
		tenantOf[i] = st.name
		st.seq++
	}
	return bodies, tenantOf
}

type loadgen struct {
	client *http.Client
	base   string
	hist   *telemetry.Histogram

	admitted atomic.Int64
	rejected atomic.Int64
	retries  atomic.Int64
	errors   atomic.Int64
}

// closedLoop runs conns workers over a shared cursor: each worker submits,
// waits for the completion (that wait is the latency sample), honors
// Retry-After on 429, and moves to the next flow.
func (lg *loadgen) closedLoop(bodies, tenantOf []string, conns int) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				lg.submitWithRetry(tenantOf[i], bodies[i])
			}
		}()
	}
	wg.Wait()
}

// openLoop fires submissions at the aggregate rate without waiting for
// completions; each in-flight submission still measures its own latency.
func (lg *loadgen) openLoop(bodies, tenantOf []string, rate float64) {
	if rate <= 0 {
		log.Fatal("idxflow-loadgen: open loop needs -rate > 0")
	}
	interval := time.Duration(float64(time.Second) / rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	for i := range bodies {
		<-ticker.C
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, err := lg.submitOnce(tenantOf[i], bodies[i])
			switch {
			case err != nil:
				lg.errors.Add(1)
			case status == http.StatusTooManyRequests:
				lg.rejected.Add(1)
			}
		}()
	}
	wg.Wait()
}

// submitWithRetry is the closed-loop client step: on 429 it sleeps the
// server's Retry-After and resubmits the same flow.
func (lg *loadgen) submitWithRetry(tenant, body string) {
	for {
		status, retryAfter, err := lg.submitOnce(tenant, body)
		if err != nil {
			lg.errors.Add(1)
			return
		}
		if status == http.StatusTooManyRequests {
			lg.retries.Add(1)
			time.Sleep(retryAfter)
			continue
		}
		return
	}
}

// submitOnce posts one flow and samples its latency on success. Returns
// the status code and, for 429s, the server's Retry-After.
func (lg *loadgen) submitOnce(tenant, body string) (status int, retryAfter time.Duration, err error) {
	start := time.Now()
	resp, err := lg.client.Post(
		lg.base+"/v1/dataflows?tenant="+tenant, "text/plain", strings.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		lg.hist.Observe(time.Since(start).Seconds())
		lg.admitted.Add(1)
		return resp.StatusCode, 0, nil
	case http.StatusTooManyRequests:
		ra := time.Second
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, perr := strconv.Atoi(s); perr == nil && secs > 0 {
				ra = time.Duration(secs) * time.Second
			}
		}
		return resp.StatusCode, ra, nil
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, 0, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
}

// AuditVerdict mirrors the server's /debug/audit response.
type AuditVerdict struct {
	Clean      bool     `json:"clean"`
	Violations []string `json:"violations"`
	Executions int      `json:"executions"`
	Admitted   int64    `json:"admitted"`
	Rejected   int64    `json:"rejected"`
	InFlight   int64    `json:"in_flight"`
}

// WarmStats mirrors the warm-start summary of the server's /v1/qaas
// report.
type WarmStats struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

type QaaSStats struct {
	Warm WarmStats `json:"warm"`
}

func (lg *loadgen) fetchQaaS() (*QaaSStats, error) {
	resp, err := lg.client.Get(lg.base + "/v1/qaas")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var q QaaSStats
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		return nil, err
	}
	return &q, nil
}

func (lg *loadgen) fetchAudit() (*AuditVerdict, error) {
	resp, err := lg.client.Get(lg.base + "/debug/audit")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var v AuditVerdict
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Summary is the run report, printed human-readable and exported as JSON.
type Summary struct {
	Mode            string        `json:"mode"`
	Tenants         int           `json:"tenants"`
	Requested       int           `json:"requested"`
	Admitted        int64         `json:"admitted"`
	Rejected        int64         `json:"rejected_429"`
	Retries         int64         `json:"retries_429"`
	Errors          int64         `json:"errors"`
	WallSeconds     float64       `json:"wall_seconds"`
	DataflowsPerSec float64       `json:"dataflows_per_sec"`
	P50Seconds      float64       `json:"p50_seconds"`
	P95Seconds      float64       `json:"p95_seconds"`
	P99Seconds      float64       `json:"p99_seconds"`
	MeanSeconds     float64       `json:"mean_seconds"`
	Warm            *WarmStats    `json:"warm,omitempty"`
	Audit           *AuditVerdict `json:"audit,omitempty"`
}

func (s Summary) print(w io.Writer) {
	fmt.Fprintf(w, "\nidxflow-loadgen summary (%s loop, %d tenants)\n", s.Mode, s.Tenants)
	fmt.Fprintf(w, "  submissions   %d requested, %d admitted, %d rejected, %d retries, %d errors\n",
		s.Requested, s.Admitted, s.Rejected, s.Retries, s.Errors)
	fmt.Fprintf(w, "  wall          %.2fs\n", s.WallSeconds)
	fmt.Fprintf(w, "  throughput    %.1f dataflows/sec\n", s.DataflowsPerSec)
	fmt.Fprintf(w, "  latency       p50 %.1fms  p95 %.1fms  p99 %.1fms  mean %.1fms\n",
		s.P50Seconds*1e3, s.P95Seconds*1e3, s.P99Seconds*1e3, s.MeanSeconds*1e3)
	if s.Warm != nil {
		fmt.Fprintf(w, "  warm-start    %.1f%% hit rate (%d hits, %d misses)\n",
			s.Warm.HitRate*100, s.Warm.Hits, s.Warm.Misses)
	}
	if s.Audit != nil {
		verdict := "CLEAN"
		if !s.Audit.Clean {
			verdict = fmt.Sprintf("%d VIOLATION SET(S)", len(s.Audit.Violations))
		}
		fmt.Fprintf(w, "  audit         %s (%d executions audited, %d admitted server-side)\n",
			verdict, s.Audit.Executions, s.Audit.Admitted)
	}
}

func writeJSONFile(path string, v any) error {
	return profiling.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
