package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"idxflow/internal/flowlang"
	"idxflow/internal/qaas"
	"idxflow/internal/workload"
)

// serveParams sizes the two serve workloads. The timed values are frozen
// in defaultServe; tests shrink them. Every count is per block and is
// split evenly over the tenants.
type serveParams struct {
	tenants     int
	warmupOps   int // untimed ops after the server is ready, part of set-up
	opsPerBlock int // timed ops between two server starts
	windowOps   int // ops per throughput and CPU window
	// serve_recurring: each tenant cycles templates flows and submits each
	// repeats times in a row. The warm memo holds one entry per tenant, so
	// only consecutive repeats hit it.
	templates, repeats int
	// traceOps is how many ops the in-process replay of a traced run takes,
	// twice: once with spans and once without.
	traceOps int
	// provCap sizes the provenance rings of the traced run's in-process
	// replicas; the server child keeps its flag default, defaultProvCap.
	provCap int
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%02d", i) }

// catalogSeed is the server's -seed, its default. It is the program's own
// configuration, not an input: tenant t's file database derives from it, and
// the heavy-tailed CyberShake file sizes would otherwise make money per flow
// differ by a quarter from one workload seed to the next.
const catalogSeed = 1

// generateBodies returns, per tenant, the flowlang bodies it submits in
// order, warm-up first. Tenant t's flows come from a workload.Generator
// seeded from seed, over the file database the server instantiates for t, so
// every flow names real partitions and potential indexes.
func generateBodies(name string, seed int64, p serveParams) ([][]string, error) {
	perTenant := (p.warmupOps + p.opsPerBlock) / p.tenants
	out := make([][]string, p.tenants)
	for t := range out {
		db, err := workload.NewFileDB(qaas.TenantSeed(catalogSeed, tenantName(t)))
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", tenantName(t), err)
		}
		gen := workload.NewGenerator(db, qaas.TenantSeed(seed, tenantName(t)))
		flow := func(seq int) string {
			return flowlang.Marshal(gen.Flow(workload.Apps[seq%len(workload.Apps)], seq, 0))
		}
		bodies := make([]string, perTenant)
		switch name {
		case "serve_unique":
			for s := range bodies {
				bodies[s] = flow(s)
			}
		case "serve_recurring":
			templates := make([]string, p.templates)
			for j := range templates {
				templates[j] = flow(j)
			}
			for s := range bodies {
				bodies[s] = templates[(s/p.repeats)%p.templates]
			}
		default:
			return nil, fmt.Errorf("no serve workload %q", name)
		}
		out[t] = bodies
	}
	return out, nil
}

// tenantsOf returns the tenants connection k of conns owns: k, k+conns, …
// A tenant belongs to one connection, which submits the tenant's flows
// strictly in sequence, so each tenant's history repeats exactly whatever
// the interleaving across connections.
func tenantsOf(k, conns, tenants int) []int {
	var out []int
	for t := k; t < tenants; t += conns {
		out = append(out, t)
	}
	return out
}

// serverProc is a running idxflow-server child.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	logs bytes.Buffer
}

// freeLoopbackAddr binds port 0 on loopback, reads the port the kernel
// chose and releases it for the server to bind.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer executes the server binary and returns once its listener
// answers. The flags are the production ones except -audit=false: the
// per-execution exact-replay auditor is a test harness that doubles the
// simulation work.
func startServer(bin string, workers int) (*serverProc, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	s := &serverProc{base: "http://" + addr}
	s.cmd = exec.Command(bin, "-addr", addr, "-qaas", "-workers", strconv.Itoa(workers),
		"-audit=false", "-pace", "0", "-seed", strconv.Itoa(catalogSeed))
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	s.cmd.Stdout = &s.logs
	s.cmd.Stderr = &s.logs
	// The child must not outlive a driver that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not ready on %s after 20s: %s", addr, s.logs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the child and waits until it has ended.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// submitReply is the part of the server's reply the benchmark checks.
type submitReply struct {
	MoneyQuanta float64 `json:"money_quanta"`
}

// connResult is what one connection measured in one phase.
type connResult struct {
	latMS  []float64
	money  map[int][]float64 // tenant -> money per flow, in submission order
	failed int
	err    error
}

// runPhase submits flows [from, to) of every tenant in a closed loop over
// conns connections and returns each connection's measurements once all
// have finished.
func runPhase(client *http.Client, base string, bodies [][]string, conns, from, to int) []connResult {
	results := make([]connResult, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[k]
			owned := tenantsOf(k, conns, len(bodies))
			r.latMS = make([]float64, 0, (to-from)*len(owned))
			r.money = make(map[int][]float64, len(owned))
			urls := make(map[int]string, len(owned))
			for _, t := range owned {
				urls[t] = base + "/v1/dataflows?tenant=" + tenantName(t)
			}
			for i := from; i < to; i++ {
				for _, t := range owned {
					start := time.Now()
					money, ok, err := submit(client, urls[t], bodies[t][i])
					r.latMS = append(r.latMS, time.Since(start).Seconds()*1e3)
					if err != nil {
						r.err = err
						return
					}
					if !ok {
						r.failed++
					}
					r.money[t] = append(r.money[t], money)
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// submit posts one flow. ok is false for any reply other than 200 with a
// money figure; err is a transport failure, which ends the run.
func submit(client *http.Client, url, body string) (money float64, ok bool, err error) {
	resp, err := client.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, false, nil
	}
	var reply submitReply
	if err := json.Unmarshal(b, &reply); err != nil || reply.MoneyQuanta <= 0 {
		return 0, false, nil
	}
	return reply.MoneyQuanta, true, nil
}

// qaasReport is the part of GET /v1/qaas the benchmark reads.
type qaasReport struct {
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Fleet    struct {
		Peak int `json:"peak"`
	} `json:"fleet"`
	Books struct {
		Global float64 `json:"global_quanta"`
	} `json:"books"`
	Warm struct {
		HitRate float64 `json:"hit_rate"`
	} `json:"warm"`
	Batch struct {
		MeanSize float64 `json:"mean_size"`
	} `json:"batch"`
}

type auditVerdict struct {
	Clean      bool     `json:"clean"`
	Violations []string `json:"violations"`
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveBlock starts a server, warms it up, times opsPerBlock ops against
// it window by window, verifies the server's books against the replies and
// stops it.
func serveBlock(bin string, p serveParams, bodies [][]string, conns int, k *hostKernel) (block, qaasReport, error) {
	var b block
	var report qaasReport
	client := &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
	}
	defer client.CloseIdleConnections()

	setupStart := time.Now()
	srv, err := startServer(bin, conns)
	if err != nil {
		return b, report, err
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid

	// Money is summed tenant by tenant in submission order, so that the sum
	// is the same bits on every run of one seed.
	money := make([]float64, p.tenants)
	collect := func(results []connResult) error {
		for _, r := range results {
			if r.err != nil {
				return fmt.Errorf("submit: %w\nserver log:\n%s", r.err, srv.logs.String())
			}
			for t, ms := range r.money {
				for _, m := range ms {
					money[t] += m
				}
			}
		}
		return nil
	}
	sum := func() float64 {
		var s float64
		for _, m := range money {
			s += m
		}
		return s
	}

	warm := p.warmupOps / p.tenants
	if err := collect(runPhase(client, srv.base, bodies, conns, 0, warm)); err != nil {
		return b, report, err
	}
	b.setupS = time.Since(setupStart).Seconds()
	warmMoney := sum()

	step := p.windowOps / p.tenants
	for from := warm; from < len(bodies[0]); from += step {
		cpu, err := procCPUSeconds(pid)
		if err != nil {
			return b, report, err
		}
		start := time.Now()
		results := runPhase(client, srv.base, bodies, conns, from, from+step)
		wallS := time.Since(start).Seconds()
		cpuEnd, err := procCPUSeconds(pid)
		if err != nil {
			return b, report, err
		}
		if err := collect(results); err != nil {
			return b, report, err
		}
		kernelMS, err := k.sampleMS()
		if err != nil {
			return b, report, err
		}
		b.windows = append(b.windows, newWindow(step*p.tenants, wallS, cpuEnd-cpu, kernelMS))
		for _, r := range results {
			b.failed += r.failed
			b.latMS = append(b.latMS, r.latMS...)
		}
		b.timedS += wallS
	}
	b.ops = len(b.latMS)
	b.outcome = sum() - warmMoney
	if b.peakRSSMB, err = peakRSSMB(pid); err != nil {
		return b, report, err
	}

	if err := getJSON(client, srv.base+"/v1/qaas", &report); err != nil {
		return b, report, err
	}
	var audit auditVerdict
	if err := getJSON(client, srv.base+"/debug/audit", &audit); err != nil {
		return b, report, err
	}
	if !audit.Clean {
		b.invalid = append(b.invalid, "unclean audit: "+strings.Join(audit.Violations, "; "))
	}
	if all := sum(); math.Abs(report.Books.Global-all) > 1e-6*all {
		b.invalid = append(b.invalid, fmt.Sprintf("the server's ledger holds %.6f quanta, the replies sum to %.6f", report.Books.Global, all))
	}
	return b, report, nil
}
