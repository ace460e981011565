package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/ckks"
	"repro/internal/faultinject"
	"repro/internal/fherr"
	"repro/internal/obs"
)

// startServer boots a server on an ephemeral port and tears it down with
// the test. The returned base URL points at the live listener.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv, err := New(cfg, obs.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		_ = srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, "http://" + srv.Addr()
}

// makeTenant creates a deterministic tenant and returns a base
// ciphertext to operate on.
func makeTenant(t *testing.T, base, id string, cfg TenantConfig) *ckks.Ciphertext {
	t.Helper()
	if cfg.Seed == "" {
		cfg.Seed = "server test tenant " + id
	}
	c := NewClient(base)
	if _, err := c.CreateTenant(t.Context(), id, cfg); err != nil {
		t.Fatalf("create tenant %s: %v", id, err)
	}
	ct, err := c.Encrypt(t.Context(), id, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("encrypt: %v", err)
	}
	return ct
}

// wantError fails unless err is a reply with the given status that
// satisfies errors.Is(err, sentinel).
func wantError(t *testing.T, name string, err error, status int, sentinel error) {
	t.Helper()
	if e := (*Error)(nil); !errors.As(err, &e) || e.Status != status || !errors.Is(err, sentinel) {
		t.Errorf("%s: %v; want status %d and %v", name, err, status, sentinel)
	}
}

// TestStatusMapping drives the error taxonomy end to end: each failure
// class must reach the client with its contracted status and sentinel.
func TestStatusMapping(t *testing.T) {
	srv, base := startServer(t, Config{Slots: 2, Queue: 2})
	ct := makeTenant(t, base, "map", TenantConfig{LogN: 10, Levels: 2})
	c, ctx := NewClient(base), t.Context()
	eval := func(args EvalArgs) error { return errOf(c.Eval(ctx, "map", ct, nil, args)) }

	for _, tc := range []struct {
		name     string
		err      error
		status   int
		sentinel error
	}{
		{"unknown tenant", errOf(c.Rotate(ctx, "nope", ct, EvalArgs{By: 1})), 404, ErrTenantUnknown},
		{"duplicate tenant", errOf(c.CreateTenant(ctx, "map", TenantConfig{})), 409, ErrTenantExists},
		// The one raw body: the JSON string "not an object" where an
		// object belongs (a request without ciphertexts goes as marshalled).
		{"bad body", c.call(ctx, "POST", "/v1/tenants/map/eval", "not an object", nil, nil), 400, fherr.ErrUsage},
		{"unknown op", eval(EvalArgs{Op: "frobnicate"}), 400, fherr.ErrUsage},
		// Q ≈ 2^130 and Δ = 2^40: |v| must stay below about 2^89.
		{"value past Q/2", errOf(c.Encrypt(ctx, "map", []float64{1, 1e27})), 400, fherr.ErrUsage},
		{"missing galois key", eval(EvalArgs{Op: "rotate", By: 3}), 412, fherr.ErrKeyMissing},
		{"chaos disabled", c.Chaos(ctx, "map", faultinject.Fault{Site: "x", Kind: faultinject.KindBitFlip}), 403, ErrChaosDisabled},
		{"guard without chaos", eval(EvalArgs{Op: "rotate", By: 1, Guard: true}), 403, ErrChaosDisabled},
		{"bootstrap disabled", errOf(c.Bootstrap(ctx, "map", ct)), 412, ErrBootstrapDisabled},
		{"level exhaustion", eval(EvalArgs{Op: "rescale", Repeat: 8}), 422, fherr.ErrLevelMismatch},
		// A client-chosen negative level is bad input, never a 5xx.
		{"droplevel to -1", eval(EvalArgs{Op: "droplevel", By: -1}), 422, fherr.ErrLevelMismatch},
		{"droplevel to -2", eval(EvalArgs{Op: "droplevel", By: -2}), 422, fherr.ErrLevelMismatch},
	} {
		wantError(t, tc.name, tc.err, tc.status, tc.sentinel)
	}
	if srv.Recorder().Counter("fhed.errors") == 0 {
		t.Error("fhed.errors counter never incremented")
	}
}

// TestMulAtLevelZeroIsRejectedBeforeTheKeySwitch: a mul that can only fail
// its rescale is a 422 before any kernel runs — it must not hold an
// admission slot and the tenant lock for a whole key switch first.
func TestMulAtLevelZeroIsRejectedBeforeTheKeySwitch(t *testing.T) {
	srv, base := startServer(t, Config{Slots: 2, Queue: 2})
	ct := makeTenant(t, base, "low", TenantConfig{LogN: 10, Levels: 2})
	c := NewClient(base)
	bottom, err := c.Eval(t.Context(), "low", ct, nil, EvalArgs{Op: "droplevel", By: 0})
	if err != nil {
		t.Fatalf("droplevel: %v", err)
	}

	_, err = c.Eval(t.Context(), "low", bottom, bottom, EvalArgs{Op: "mul"})
	wantError(t, "mul at level 0", err, 422, fherr.ErrLevelMismatch)
	rec := srv.Recorder()
	if n := len(rec.Snapshot().SpansNamed("rns.ModUpDigit")); n != 0 {
		t.Errorf("mul at level 0 entered rns.ModUpDigit %d times before its 422", n)
	}
	if n := rec.Counter("ckks.keyswitch") + rec.Counter("ckks.mult"); n != 0 {
		t.Errorf("mul at level 0 counted %d key switches and tensors before its 422", n)
	}
}

// TestBackpressure429 saturates a 1-slot/1-queue server and checks the
// overload contract: excess arrivals get fast 429s with a Retry-After
// hint, and nothing hangs or times out.
func TestBackpressure429(t *testing.T) {
	srv, base := startServer(t, Config{Slots: 1, Queue: 1})
	ct := makeTenant(t, base, "bp", TenantConfig{LogN: 11, Levels: 2})
	c := NewClient(base)
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()

	const clients = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		statuses = map[int]int{}
		retryHdr int
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Rotate(ctx, "bp", ct, EvalArgs{By: 1, Repeat: 16})
			e := &Error{Status: 200}
			if err != nil && !errors.As(err, &e) {
				t.Errorf("rotate: %v", err)
				return
			}
			mu.Lock()
			statuses[e.Status]++
			if e.Status == 429 && e.RetryAfter > 0 && errors.Is(err, ErrQueueFull) {
				retryHdr++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	if statuses[200] == 0 {
		t.Errorf("no request succeeded: %v", statuses)
	}
	if statuses[429] == 0 {
		t.Errorf("server never pushed back with 429: %v", statuses)
	}
	if retryHdr != statuses[429] {
		t.Errorf("%d of %d 429s carried Retry-After and ErrQueueFull", retryHdr, statuses[429])
	}
	if len(statuses) != 2 {
		t.Errorf("a status besides 200 and 429 under overload: %v", statuses)
	}
	rec := srv.Recorder()
	if got := rec.Counter("fhed.admission.rejected"); got != uint64(statuses[429]) {
		t.Errorf("fhed.admission.rejected = %d, want %d", got, statuses[429])
	}
	if rec.Counter("fhed.admission.admitted") == 0 {
		t.Error("fhed.admission.admitted never incremented")
	}
}

// TestDeadline504 binds a deadline far below the op's runtime and checks
// both halves of the contract: the client gets a typed 504, and the
// server actually stopped computing (the request returns in a fraction
// of the full op time).
func TestDeadline504(t *testing.T) {
	_, base := startServer(t, Config{Slots: 1, Queue: 4})
	ct := makeTenant(t, base, "dl", TenantConfig{LogN: 12, Levels: 2})
	c := NewClient(base)

	const repeat = 64
	// Reference: full runtime of the repeated rotation.
	t0 := time.Now()
	if _, err := c.Rotate(t.Context(), "dl", ct, EvalArgs{By: 1, Repeat: repeat}); err != nil {
		t.Fatalf("reference rotate: %v", err)
	}
	full := time.Since(t0)

	deadline := full / 8
	if deadline < 5*time.Millisecond {
		deadline = 5 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(t.Context(), deadline)
	defer cancel()
	t0 = time.Now()
	_, err := c.Rotate(ctx, "dl", ct, EvalArgs{By: 1, Repeat: repeat})
	elapsed := time.Since(t0)
	wantError(t, "deadline rotate", err, 504, fherr.ErrCanceled)
	if elapsed > full {
		t.Errorf("deadline response took %v, full op only %v — deadline did not stop work", elapsed, full)
	}

	// The session must be fully usable afterwards.
	if _, err := c.Rotate(t.Context(), "dl", ct, EvalArgs{By: 1}); err != nil {
		t.Fatalf("rotate after deadline: %v", err)
	}
}

// TestEvalRoundTrip checks the data plane end to end: encrypt → eval →
// decrypt recovers the expected plaintext arithmetic, and a deleted
// tenant is gone.
func TestEvalRoundTrip(t *testing.T) {
	_, base := startServer(t, Config{Slots: 2, Queue: 2})
	ct := makeTenant(t, base, "rt", TenantConfig{LogN: 10, Levels: 2})
	c, ctx := NewClient(base), t.Context()

	// (v + v) rotated by 1: slot i holds 2*v[i+1].
	sum, err := c.Eval(ctx, "rt", ct, ct, EvalArgs{Op: "add"})
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	rot, err := c.Rotate(ctx, "rt", sum, EvalArgs{By: 1})
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	got, err := c.Decrypt(ctx, "rt", rot, 3)
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	want := []float64{4, 6, 8}
	for i, w := range want {
		if d := got[i] - w; d > 1e-3 || d < -1e-3 {
			t.Errorf("slot %d = %v, want %v", i, got[i], w)
		}
	}
	if err := c.DeleteTenant(ctx, "rt"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	wantError(t, "stats after delete", errOf(c.Stats(ctx, "rt")), 404, ErrTenantUnknown)
}

// TestHealthzDuringLoad: the observability plane bypasses admission —
// a fully saturated server still answers health checks promptly — and
// once the rotate completes, /metrics exposes it in Prometheus text and
// the server's spans split it into codec, session-lock wait and eval.
func TestHealthzDuringLoad(t *testing.T) {
	srv, base := startServer(t, Config{Slots: 1, Queue: 1})
	ct := makeTenant(t, base, "hz", TenantConfig{LogN: 11, Levels: 2})
	c := NewClient(base)
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()

	// Occupy the only slot.
	rotated := make(chan error, 1)
	go func() {
		_, err := c.Rotate(ctx, "hz", ct, EvalArgs{By: 1, Repeat: 64})
		rotated <- err
	}()
	time.Sleep(30 * time.Millisecond)

	t0 := time.Now()
	hz, err := c.Healthz(ctx)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Errorf("healthz took %v under load", el)
	}
	if hz.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", hz.Status)
	}
	if resp, _ := getMetrics(t, base); resp.StatusCode != 200 {
		t.Errorf("metrics under load: status %d", resp.StatusCode)
	}

	if err := <-rotated; err != nil {
		t.Fatalf("rotate: %v", err)
	}
	resp, metrics := getMetrics(t, base)
	if resp.StatusCode != 200 {
		t.Fatalf("metrics after rotate: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4" {
		t.Errorf("metrics Content-Type = %q, want the Prometheus text format", got)
	}
	for _, want := range []string{
		"fhed_requests_total",
		`fhed_http_rotate_seconds_bucket{le="+Inf"}`,
		"fhed_http_rotate_seconds_count",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("metrics after one rotate lack %s:\n%s", want, metrics)
		}
	}
	snap := srv.Recorder().Snapshot()
	for _, name := range []string{"fhed.codec.decode", "fhed.session.wait", "ckks.RotateE", "fhed.codec.encode"} {
		if len(snap.SpansNamed(name)) == 0 {
			t.Errorf("no %s span after a rotate", name)
		}
	}
}

// getMetrics reads /metrics, the one route the Client has no method for:
// its body is Prometheus text, not the API's JSON.
func getMetrics(t *testing.T, base string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestRetryAfterEstimate pins the backoff hint's shape: bounded and
// positive.
func TestRetryAfterEstimate(t *testing.T) {
	a := newAdmission(2, 8, obs.NewRecorder())
	if got := a.retryAfterSec(); got < 1 || got > 5 {
		t.Errorf("idle retryAfterSec = %d, want in [1,5]", got)
	}
	a.waiting.Store(100)
	if got := a.retryAfterSec(); got != 5 {
		t.Errorf("backlogged retryAfterSec = %d, want clamped 5", got)
	}
}

// TestSessionKeysReproducibleFromSeed: a TenantConfig.Seed fixes the
// tenant's keys — two sessions built from one seed hold byte-identical
// Galois key sets (key generation walks the sorted rotation-step list,
// never a map) and rotate one ciphertext to the same bits.
func TestSessionKeysReproducibleFromSeed(t *testing.T) {
	cfg := TenantConfig{LogN: 10, Levels: 2, Rots: []int{7, 3, 100, 5}, Seed: "reproducible tenant"}
	a, err := newSession("a", cfg, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSession("b", cfg, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := a.ev.Keys().Galois, b.ev.Keys().Galois
	if len(ka) != len(kb) {
		t.Fatalf("%d vs %d Galois keys", len(ka), len(kb))
	}
	differ := 0
	for g, gk := range ka {
		var wa, wb bytes.Buffer
		if _, err := gk.WriteTo(&wa); err != nil {
			t.Fatal(err)
		}
		if _, err := kb[g].WriteTo(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
			differ++
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d Galois keys differ between two sessions on one seed", differ, len(ka))
	}
	ra, rb := a.ev.Rotate(a.canaryCt, 7), b.ev.Rotate(a.canaryCt, 7)
	if !ra.C0.Equal(rb.C0) || !ra.C1.Equal(rb.C1) {
		t.Error("two sessions on one seed rotate one ciphertext differently")
	}
}
