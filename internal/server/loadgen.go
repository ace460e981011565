package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/ckks"
	"repro/internal/faultinject"
	"repro/internal/fherr"
)

// LoadConfig drives one load-generator run against a live fhed (the
// `fhed -load` client). The generator ramps offered concurrency across
// windows, retries backpressure responses with jittered exponential
// backoff that honors Retry-After, and (in chaos mode) interleaves
// fault-inject/detect/recover cycles with the steady-state load.
type LoadConfig struct {
	// BaseURL of the target server, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// Window is the duration of each concurrency step (default 2s).
	Window time.Duration
	// Ramp is the offered-concurrency ladder (default [1,2,4,8,16]).
	// The top rung is expected to exceed Slots+Queue on a default
	// server, driving it into 429 territory — that is the point.
	Ramp []int
	// Repeat chains this many rotations inside each request (op weight;
	// default 8), shifting the load from HTTP toward evaluator time.
	Repeat int
	// Chaos interleaves fault cycles (server must run with -chaos).
	Chaos bool
	Log   *log.Logger
}

const (
	// loadTenant is the tenant the run creates (or reuses) and hammers.
	loadTenant = "loadgen"
	// loadDeadline is each call's deadline: a stalled server fails the
	// run with a timeout instead of hanging it.
	loadDeadline = 10 * time.Second
	// loadRetries bounds the backoff loop of one logical request.
	loadRetries = 4
	// chaosCycles is the number of inject/detect/recover cycles.
	chaosCycles = 3
)

func (c *LoadConfig) fillDefaults() {
	if c.Window == 0 {
		c.Window = 2 * time.Second
	}
	if len(c.Ramp) == 0 {
		c.Ramp = []int{1, 2, 4, 8, 16}
	}
	if c.Repeat == 0 {
		c.Repeat = 8
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
}

// WindowStats is one rung of the concurrency ramp.
type WindowStats struct {
	Concurrency int
	OK          uint64 // logical requests answered, after up to loadRetries retries
	Rejected    uint64 // attempts answered 429/503
	Retries     uint64 // re-sent attempts
	Errors      uint64 // non-backpressure failures
	Timeouts    uint64 // 504s / client-side deadline
}

// ChaosStats tallies the fault cycles of a chaos run. A healthy server
// detects every injected key-vault corruption as a typed 422 (the canary
// probe) and recovers from it with a vault flush.
type ChaosStats struct {
	Cycles, Detected, Recovered int
}

// LoadReport is what one load run saw: the evidence behind RunLoad's
// verdict. Latency and throughput are gated by the fhed_mixed workload of
// bench/, not by this run.
type LoadReport struct {
	Windows []WindowStats
	Chaos   *ChaosStats // nil unless LoadConfig.Chaos
}

// loadGen is one run's client state.
type loadGen struct {
	cfg LoadConfig
	c   *Client
}

func newLoadGen(cfg LoadConfig) *loadGen {
	cfg.fillDefaults()
	return &loadGen{cfg: cfg, c: &Client{base: cfg.BaseURL, timeout: loadDeadline}}
}

// RunLoad executes the full ramp and returns the report with the run's
// verdict: a resilience gate that fails on any non-backpressure error,
// any timeout (overload must degrade to fast rejections, never hangs), a
// first rung (the lightest load) that completed no request, or any chaos
// cycle not both detected and recovered. The tenant is created (or
// reused if it exists) before the first window.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	lg := newLoadGen(cfg)

	// Provision: tenant + one base ciphertext all workers share.
	if _, err := lg.c.CreateTenant(ctx, loadTenant, TenantConfig{Seed: "loadgen deterministic tenant"}); err != nil && !errors.Is(err, ErrTenantExists) {
		return nil, fmt.Errorf("loadgen: create tenant: %w", err)
	}
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) * 0.01
	}
	base, err := lg.c.Encrypt(ctx, loadTenant, vals)
	if err != nil {
		return nil, fmt.Errorf("loadgen: encrypt seed ct: %w", err)
	}

	rep := &LoadReport{}
	for _, conc := range lg.cfg.Ramp {
		w := lg.window(ctx, conc, base)
		rep.Windows = append(rep.Windows, w)
		lg.cfg.Log.Printf("loadgen: conc=%-3d ok=%-6d rejected=%-5d errors=%d timeouts=%d rps=%.1f",
			conc, w.OK, w.Rejected, w.Errors, w.Timeouts, float64(w.OK)/lg.cfg.Window.Seconds())
		if w.Errors > 0 || w.Timeouts > 0 {
			err = fmt.Errorf("loadgen: %d errors and %d timeouts at concurrency %d — saturation must shed load as 429s", w.Errors, w.Timeouts, conc)
		}
	}
	if err == nil && rep.Windows[0].OK == 0 {
		err = errors.New("loadgen: the first rung completed no request — a server that sheds everything shows nothing")
	}
	if cfg.Chaos {
		rep.Chaos = lg.chaosCycles(ctx, base)
		ch := rep.Chaos
		lg.cfg.Log.Printf("loadgen: chaos cycles=%d detected=%d recovered=%d", ch.Cycles, ch.Detected, ch.Recovered)
		if err == nil && (ch.Detected < ch.Cycles || ch.Recovered < ch.Cycles) {
			err = fmt.Errorf("loadgen: chaos cycles failed: %d/%d detected, %d/%d recovered", ch.Detected, ch.Cycles, ch.Recovered, ch.Cycles)
		}
	}
	return rep, err
}

// window runs one rung of the ramp: conc workers issuing rotate
// requests back-to-back for the window duration.
func (lg *loadGen) window(ctx context.Context, conc int, base *ckks.Ciphertext) WindowStats {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
		w  = WindowStats{Concurrency: conc}
	)
	deadline := time.Now().Add(lg.cfg.Window)
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				attempts, rejected, err := lg.rotate(ctx, base, 1<<(worker%3))
				mu.Lock()
				w.Rejected += rejected
				w.Retries += attempts - 1
				switch {
				case err == nil:
					w.OK++
				case backpressure(err):
					// the final attempt's rejection is in rejected already
				case errors.Is(err, fherr.ErrCanceled), errors.Is(err, context.DeadlineExceeded):
					w.Timeouts++
				default:
					w.Errors++
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return w
}

// rotate issues one rotate request, retrying backpressure rejections. It
// returns how many attempts it made, how many of them were rejected, and
// the last attempt's error.
func (lg *loadGen) rotate(ctx context.Context, ct *ckks.Ciphertext, by int) (attempts, rejected uint64, err error) {
	backoff := 50 * time.Millisecond
	for {
		attempts++
		_, err = lg.c.Rotate(ctx, loadTenant, ct, EvalArgs{By: by, Repeat: lg.cfg.Repeat})
		if !backpressure(err) {
			return attempts, rejected, err
		}
		rejected++
		if attempts > loadRetries {
			return attempts, rejected, err
		}
		// Honor the server's hint as the floor, then add jittered
		// exponential backoff on top so synchronized clients desynchronize.
		wait := backoff + rand.N(backoff)
		if e := (*Error)(nil); errors.As(err, &e) && e.RetryAfter > wait {
			wait = e.RetryAfter
		}
		time.Sleep(wait)
		backoff *= 2
	}
}

// backpressure reports a 429 or 503: the server shed the attempt.
func backpressure(err error) bool {
	var e *Error
	return errors.As(err, &e) && (e.Status == 429 || e.Status == 503)
}

// chaosCycles runs inject → detect → recover loops against the vault
// digit site: arm a bit flip on the next materialized switching-key
// digit, force materialization with a guarded rotate (expect the canary
// probe's typed 422), flush the vault through the API, and verify a
// second guarded rotate comes back clean. A failed step ends its cycle.
func (lg *loadGen) chaosCycles(ctx context.Context, base *ckks.Ciphertext) *ChaosStats {
	st := &ChaosStats{}
	guarded := func() error {
		_, err := lg.c.Rotate(ctx, loadTenant, base, EvalArgs{By: 1, Guard: true})
		return err
	}
	for i := 0; i < chaosCycles; i++ {
		st.Cycles++
		fault := faultinject.Fault{Site: "ckks.keyvault.digitA", Kind: faultinject.KindBitFlip, Bit: 33, Coeff: 7 + 11*i}
		// Flush after arming so the guarded rotate must rematerialize the
		// digit — that materialization is where the armed fault fires.
		err := lg.c.Chaos(ctx, loadTenant, fault)
		if err == nil {
			err = lg.c.FlushVault(ctx, loadTenant)
		}
		if err == nil {
			err = guarded()
		}
		if !errors.Is(err, fherr.ErrPrecisionLoss) {
			lg.cfg.Log.Printf("loadgen: chaos cycle %d: corruption NOT detected (%v)", i, err)
			continue
		}
		st.Detected++
		// Recovery: flush, then the same guarded rotate must pass.
		if err = lg.c.FlushVault(ctx, loadTenant); err == nil {
			err = guarded()
		}
		if err != nil {
			lg.cfg.Log.Printf("loadgen: chaos cycle %d: recovery failed (%v)", i, err)
			continue
		}
		st.Recovered++
	}
	return st
}
