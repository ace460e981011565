package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// LoadConfig drives one load-generator run against a live fhed (the
// `fhed -load` client). The generator ramps offered concurrency across
// windows, retries backpressure responses with jittered exponential
// backoff that honors Retry-After, and (in chaos mode) interleaves
// fault-inject/detect/recover cycles with the steady-state load.
type LoadConfig struct {
	// BaseURL of the target server, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// Tenant id the run creates and hammers.
	Tenant string
	// KeyBudgetBytes for the tenant (0 = unlimited) — a small budget
	// makes the run exercise vault rematerialization under load.
	KeyBudgetBytes int64
	// Window is the duration of each concurrency step (default 2s).
	Window time.Duration
	// Ramp is the offered-concurrency ladder (default [1,2,4,8,16]).
	// The top rung is expected to exceed Slots+Queue on a default
	// server, driving it into 429 territory — that is the point.
	Ramp []int
	// Repeat chains this many rotations inside each request (op weight;
	// default 8). Bigger values shift the measurement from HTTP
	// overhead toward evaluator time.
	Repeat int
	// DeadlineMs is the per-request deadline header (default 10000).
	DeadlineMs int
	// Retries bounds the backoff loop per logical request (default 4).
	Retries int
	// Chaos interleaves fault cycles (server must run with -chaos).
	Chaos bool
	// Seed fixes the jitter/mix PRNG (0 = time-free fixed default).
	Seed int64
	Log  *log.Logger
}

func (c *LoadConfig) fillDefaults() {
	if c.Tenant == "" {
		c.Tenant = "loadgen"
	}
	if c.Window == 0 {
		c.Window = 2 * time.Second
	}
	if len(c.Ramp) == 0 {
		c.Ramp = []int{1, 2, 4, 8, 16}
	}
	if c.Repeat == 0 {
		c.Repeat = 8
	}
	if c.DeadlineMs == 0 {
		c.DeadlineMs = 10000
	}
	if c.Retries == 0 {
		c.Retries = 4
	}
	if c.Seed == 0 {
		c.Seed = 0x6f68656466 // "fhedo"
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
}

// OpStats is the latency profile of one op across the whole run.
type OpStats struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`
	MaxUs float64 `json:"max_us"`
}

// WindowStats is one rung of the concurrency ramp.
type WindowStats struct {
	Concurrency int     `json:"concurrency"`
	Requests    uint64  `json:"requests"`
	OK          uint64  `json:"ok"`
	Rejected    uint64  `json:"rejected"` // 429/503 responses (pre-retry)
	Errors      uint64  `json:"errors"`   // non-backpressure failures
	Timeouts    uint64  `json:"timeouts"` // 504s / client-side deadline
	RPS         float64 `json:"rps"`      // successful requests per second
	RejectRate  float64 `json:"reject_rate"`
}

// ChaosStats summarizes the fault cycles of a chaos run. A healthy
// server shows Cycles == Detected == Recovered: every injected
// key-vault corruption was caught by the canary probe as a typed 422
// and cleared by a vault flush.
type ChaosStats struct {
	Cycles    int `json:"cycles"`
	Detected  int `json:"detected"`
	Recovered int `json:"recovered"`
	Missed    int `json:"missed"`
}

// LoadReport is the measured service profile of one load run: what
// `fhed -load -out FILE` writes and what its resilience gate (zero
// errors, zero timeouts, every chaos cycle detected and recovered)
// reads. Latency and throughput trajectories are gated by the
// fhed_mixed workload of bench/, not by this report.
type LoadReport struct {
	Schema          string        `json:"schema"`
	Target          string        `json:"target"`
	Windows         []WindowStats `json:"windows"`
	Ops             []OpStats     `json:"ops"`
	MaxSustainedRPS float64       `json:"max_sustained_rps"`
	// Saturation is the top-of-ramp window: the service's behavior at
	// (deliberate) overload. The acceptance shape is a nonzero
	// rejection rate with zero timeouts — load sheds as fast 429s, not
	// as hung connections.
	Saturation WindowStats `json:"saturation"`
	Chaos      *ChaosStats `json:"chaos,omitempty"`
	Retries    uint64      `json:"retries"`
}

// loadClient is the HTTP side of the generator.
type loadClient struct {
	cfg  LoadConfig
	http *http.Client
	base string

	mu        sync.Mutex
	latencies map[string][]float64 // op → microseconds (successes only)
	retries   uint64
	rng       *rand.Rand
}

// RunLoad executes the full ramp and returns the report. The tenant is
// created (or reused if it exists) before the first window.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg.fillDefaults()
	lc := &loadClient{
		cfg:       cfg,
		http:      &http.Client{Timeout: time.Duration(cfg.DeadlineMs+5000) * time.Millisecond},
		base:      cfg.BaseURL,
		latencies: map[string][]float64{},
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}

	// Provision: tenant + one base ciphertext all workers share.
	tcfg := TenantConfig{KeyBudgetBytes: cfg.KeyBudgetBytes, Seed: "loadgen deterministic tenant"}
	status, _, err := lc.do("PUT", "/v1/tenants/"+cfg.Tenant, tcfg, 0)
	if err != nil {
		return nil, fmt.Errorf("loadgen: create tenant: %w", err)
	}
	if status != 200 && status != 409 {
		return nil, fmt.Errorf("loadgen: create tenant: status %d", status)
	}
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) * 0.01
	}
	var ctResp ctJSON
	status, body, err := lc.do("POST", "/v1/tenants/"+cfg.Tenant+"/encrypt", encryptRequest{Values: vals}, cfg.DeadlineMs)
	if err != nil || status != 200 {
		return nil, fmt.Errorf("loadgen: encrypt seed ct: status %d err %v", status, err)
	}
	if err := json.Unmarshal(body, &ctResp); err != nil {
		return nil, fmt.Errorf("loadgen: decode seed ct: %w", err)
	}

	rep := &LoadReport{Schema: "fhed-load/v1", Target: cfg.BaseURL}
	for _, conc := range cfg.Ramp {
		w := lc.window(conc, ctResp.Ct)
		rep.Windows = append(rep.Windows, w)
		if w.RPS > rep.MaxSustainedRPS {
			rep.MaxSustainedRPS = w.RPS
		}
		cfg.Log.Printf("loadgen: conc=%-3d ok=%-6d rejected=%-5d timeouts=%d rps=%.1f reject=%.1f%%",
			conc, w.OK, w.Rejected, w.Timeouts, w.RPS, w.RejectRate*100)
	}
	rep.Saturation = rep.Windows[len(rep.Windows)-1]

	if cfg.Chaos {
		ch, err := lc.chaosCycles(ctResp.Ct, 3)
		if err != nil {
			return nil, fmt.Errorf("loadgen: chaos: %w", err)
		}
		rep.Chaos = ch
		cfg.Log.Printf("loadgen: chaos cycles=%d detected=%d recovered=%d missed=%d",
			ch.Cycles, ch.Detected, ch.Recovered, ch.Missed)
	}

	lc.mu.Lock()
	defer lc.mu.Unlock()
	rep.Retries = lc.retries
	for op, lats := range lc.latencies {
		rep.Ops = append(rep.Ops, percentiles(op, lats))
	}
	sort.Slice(rep.Ops, func(i, j int) bool { return rep.Ops[i].Name < rep.Ops[j].Name })
	return rep, nil
}

// window runs one rung of the ramp: conc workers issuing rotate
// requests back-to-back for the window duration.
func (lc *loadClient) window(conc int, baseCt string) WindowStats {
	var (
		wg sync.WaitGroup
		w  = WindowStats{Concurrency: conc}
		mu sync.Mutex
	)
	deadline := time.Now().Add(lc.cfg.Window)
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var req, ok, rej, errs, tmo uint64
			for time.Now().Before(deadline) {
				req++
				status, retried, err := lc.rotate(baseCt, 1<<(worker%3))
				lc.addRetries(retried)
				rej += retried
				switch {
				case err != nil:
					errs++
				case status == 200:
					ok++
				case status == 429 || status == 503:
					rej++
				case status == 504:
					tmo++
				default:
					errs++
				}
			}
			mu.Lock()
			w.Requests += req
			w.OK += ok
			w.Rejected += rej
			w.Errors += errs
			w.Timeouts += tmo
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	w.RPS = float64(w.OK) / lc.cfg.Window.Seconds()
	if w.Requests > 0 {
		w.RejectRate = float64(w.Rejected) / float64(w.Requests+w.Rejected)
	}
	return w
}

// rotate issues one rotate request with retry-on-backpressure. It
// returns the final status, how many backpressure rejections it
// absorbed along the way, and any transport error.
func (lc *loadClient) rotate(ct string, by int) (status int, rejected uint64, err error) {
	req := evalRequest{Op: "rotate", A: ct, By: by, Repeat: lc.cfg.Repeat}
	path := "/v1/tenants/" + lc.cfg.Tenant + "/rotate"
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		st, body, derr := lc.do("POST", path, req, lc.cfg.DeadlineMs)
		if derr != nil {
			return 0, rejected, derr
		}
		if st == 200 {
			lc.observe("rotate", time.Since(t0))
			return st, rejected, nil
		}
		if st != 429 && st != 503 {
			return st, rejected, nil
		}
		rejected++
		if attempt >= lc.cfg.Retries {
			return st, rejected, nil
		}
		// Honor the server's hint as the floor, then add jittered
		// exponential backoff on top so synchronized clients desynchronize.
		wait := backoff + time.Duration(lc.jitterMs(int(backoff/time.Millisecond)))*time.Millisecond
		if ra := retryAfterOf(body); ra > wait {
			wait = ra
		}
		time.Sleep(wait)
		backoff *= 2
	}
}

// chaosCycles runs inject → detect → recover loops against the vault
// digit site: arm a bit flip on the next materialized switching-key
// digit, force materialization with a guarded rotate (expect the canary
// probe's typed 422), flush the vault through the API, and verify a
// second guarded rotate comes back clean.
func (lc *loadClient) chaosCycles(baseCt string, n int) (*ChaosStats, error) {
	st := &ChaosStats{}
	path := "/v1/tenants/" + lc.cfg.Tenant
	for i := 0; i < n; i++ {
		st.Cycles++
		status, _, err := lc.do("POST", path+"/chaos", chaosRequest{
			Site: "ckks.keyvault.digitA", Kind: "bitflip", Bit: 33, Coeff: 7 + 11*i,
		}, 0)
		if err != nil {
			return st, err
		}
		if status != 200 {
			return st, fmt.Errorf("arm fault: status %d (is the server running with -chaos?)", status)
		}
		// Flush first so the guarded rotate must rematerialize the
		// digit — that materialization is where the armed fault fires.
		if status, _, err = lc.do("POST", path+"/vault/flush", struct{}{}, 0); err != nil || status != 200 {
			return st, fmt.Errorf("pre-flush: status %d err %v", status, err)
		}
		guard := evalRequest{Op: "rotate", A: baseCt, By: 1, Guard: true}
		status, body, err := lc.do("POST", path+"/rotate", guard, lc.cfg.DeadlineMs)
		if err != nil {
			return st, err
		}
		var eb errorBody
		_ = json.Unmarshal(body, &eb)
		if status == 422 && eb.Kind == "ErrPrecisionLoss" {
			st.Detected++
		} else {
			st.Missed++
			lc.cfg.Log.Printf("loadgen: chaos cycle %d: corruption NOT detected (status %d)", i, status)
			continue
		}
		// Recovery: flush, then the same guarded rotate must pass.
		if status, _, err = lc.do("POST", path+"/vault/flush", struct{}{}, 0); err != nil || status != 200 {
			return st, fmt.Errorf("recovery flush: status %d err %v", status, err)
		}
		if status, _, err = lc.do("POST", path+"/rotate", guard, lc.cfg.DeadlineMs); err != nil {
			return st, err
		}
		if status == 200 {
			st.Recovered++
		} else {
			lc.cfg.Log.Printf("loadgen: chaos cycle %d: recovery failed (status %d)", i, status)
		}
	}
	return st, nil
}

// do issues one JSON request. deadlineMs > 0 sets the fhed deadline
// header. The response body is returned for status/hint parsing.
func (lc *loadClient) do(method, path string, body any, deadlineMs int) (int, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(method, lc.base+path, bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if deadlineMs > 0 {
		req.Header.Set(DeadlineHeader, strconv.Itoa(deadlineMs))
	}
	resp, err := lc.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	return resp.StatusCode, out, err
}

func (lc *loadClient) observe(op string, d time.Duration) {
	lc.mu.Lock()
	lc.latencies[op] = append(lc.latencies[op], float64(d.Microseconds()))
	lc.mu.Unlock()
}

func (lc *loadClient) addRetries(n uint64) {
	lc.mu.Lock()
	lc.retries += n
	lc.mu.Unlock()
}

func (lc *loadClient) jitterMs(maxMs int) int {
	if maxMs <= 0 {
		return 0
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.rng.Intn(maxMs)
}

// retryAfterOf pulls the retry hint out of a 429/503 JSON body.
func retryAfterOf(body []byte) time.Duration {
	var eb errorBody
	if json.Unmarshal(body, &eb) == nil && eb.RetryAfter > 0 {
		return time.Duration(eb.RetryAfter) * time.Second
	}
	return 0
}

func percentiles(name string, lats []float64) OpStats {
	st := OpStats{Name: name, Count: uint64(len(lats))}
	if len(lats) == 0 {
		return st
	}
	sort.Float64s(lats)
	at := func(q float64) float64 {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	st.P50Us = at(0.50)
	st.P95Us = at(0.95)
	st.P99Us = at(0.99)
	st.MaxUs = lats[len(lats)-1]
	return st
}
