package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

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

// doJSON issues one request and returns status + decoded body bytes.
func doJSON(t *testing.T, method, url string, body any, hdr map[string]string) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// makeTenant creates a deterministic tenant and returns a base
// ciphertext to operate on.
func makeTenant(t *testing.T, base, id string, cfg TenantConfig) string {
	t.Helper()
	if cfg.Seed == "" {
		cfg.Seed = "server test tenant " + id
	}
	status, body := doJSON(t, "PUT", base+"/v1/tenants/"+id, cfg, nil)
	if status != 200 {
		t.Fatalf("create tenant %s: status %d: %s", id, status, body)
	}
	status, body = doJSON(t, "POST", base+"/v1/tenants/"+id+"/encrypt",
		encryptRequest{Values: []float64{1, 2, 3, 4}}, nil)
	if status != 200 {
		t.Fatalf("encrypt: status %d: %s", status, body)
	}
	var ct ctJSON
	if err := json.Unmarshal(body, &ct); err != nil {
		t.Fatal(err)
	}
	return ct.Ct
}

func errKind(t *testing.T, body []byte) string {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("non-JSON error body %q: %v", body, err)
	}
	return eb.Kind
}

// TestStatusMapping drives the error taxonomy end to end: each failure
// class must reach the wire with its contracted status and kind.
func TestStatusMapping(t *testing.T) {
	srv, base := startServer(t, Config{Slots: 2, Queue: 2})
	ct := makeTenant(t, base, "map", TenantConfig{LogN: 10, Levels: 2})

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantKind   string
	}{
		{"unknown tenant", "POST", "/v1/tenants/nope/rotate", evalRequest{Op: "rotate", A: ct, By: 1}, 404, "tenant-unknown"},
		{"duplicate tenant", "PUT", "/v1/tenants/map", TenantConfig{}, 409, "tenant-exists"},
		{"bad body", "POST", "/v1/tenants/map/eval", "not an object", 400, "ErrUsage"},
		{"unknown op", "POST", "/v1/tenants/map/eval", evalRequest{Op: "frobnicate", A: ct}, 400, "ErrUsage"},
		// Q ≈ 2^130 and Δ = 2^40: |v| must stay below about 2^89.
		{"value past Q/2", "POST", "/v1/tenants/map/encrypt", encryptRequest{Values: []float64{1, 1e27}}, 400, "ErrUsage"},
		{"missing galois key", "POST", "/v1/tenants/map/eval", evalRequest{Op: "rotate", A: ct, By: 3}, 412, "ErrKeyMissing"},
		{"chaos disabled", "POST", "/v1/tenants/map/chaos", chaosRequest{Site: "x", Kind: "bitflip"}, 403, "chaos-disabled"},
		{"guard without chaos", "POST", "/v1/tenants/map/eval", evalRequest{Op: "rotate", A: ct, By: 1, Guard: true}, 403, "chaos-disabled"},
		{"bootstrap disabled", "POST", "/v1/tenants/map/bootstrap", bootstrapRequest{Ct: ct}, 412, "bootstrap-disabled"},
		{"level exhaustion", "POST", "/v1/tenants/map/eval", evalRequest{Op: "rescale", A: ct, Repeat: 8}, 422, "ErrLevelMismatch"},
		// A client-chosen negative level is bad input, never a 5xx.
		{"droplevel to -1", "POST", "/v1/tenants/map/eval", evalRequest{Op: "droplevel", A: ct, By: -1}, 422, "ErrLevelMismatch"},
		{"droplevel to -2", "POST", "/v1/tenants/map/eval", evalRequest{Op: "droplevel", A: ct, By: -2}, 422, "ErrLevelMismatch"},
	}
	for _, tc := range cases {
		status, body := doJSON(t, tc.method, base+tc.path, tc.body, nil)
		if status != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, status, tc.wantStatus, body)
			continue
		}
		if kind := errKind(t, body); kind != tc.wantKind {
			t.Errorf("%s: kind = %q, want %q", tc.name, kind, tc.wantKind)
		}
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
	status, body := doJSON(t, "POST", base+"/v1/tenants/low/eval", evalRequest{Op: "droplevel", A: ct, By: 0}, nil)
	if status != 200 {
		t.Fatalf("droplevel: %d %s", status, body)
	}
	var bottom evalResponse
	if err := json.Unmarshal(body, &bottom); err != nil {
		t.Fatal(err)
	}

	status, body = doJSON(t, "POST", base+"/v1/tenants/low/eval", evalRequest{Op: "mul", A: bottom.Ct, B: bottom.Ct}, nil)
	if status != 422 || errKind(t, body) != "ErrLevelMismatch" {
		t.Errorf("mul at level 0: status %d, body %s; want 422 ErrLevelMismatch", status, body)
	}
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
			raw, _ := json.Marshal(evalRequest{Op: "rotate", A: ct, By: 1, Repeat: 16})
			resp, err := http.Post(base+"/v1/tenants/bp/rotate", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Errorf("rotate: %v", err)
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body)
			mu.Lock()
			statuses[resp.StatusCode]++
			if resp.StatusCode == 429 && resp.Header.Get("Retry-After") != "" {
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
		t.Errorf("%d of %d 429s carried Retry-After", retryHdr, statuses[429])
	}
	for code := range statuses {
		if code != 200 && code != 429 {
			t.Errorf("unexpected status %d under overload: %v", code, statuses)
		}
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

	const repeat = 64
	// Reference: full runtime of the repeated rotation.
	t0 := time.Now()
	status, body := doJSON(t, "POST", base+"/v1/tenants/dl/rotate",
		evalRequest{Op: "rotate", A: ct, By: 1, Repeat: repeat}, nil)
	full := time.Since(t0)
	if status != 200 {
		t.Fatalf("reference rotate: status %d: %s", status, body)
	}

	deadline := full / 8
	if deadline < 5*time.Millisecond {
		deadline = 5 * time.Millisecond
	}
	t0 = time.Now()
	status, body = doJSON(t, "POST", base+"/v1/tenants/dl/rotate",
		evalRequest{Op: "rotate", A: ct, By: 1, Repeat: repeat},
		map[string]string{DeadlineHeader: strconv.Itoa(int(deadline.Milliseconds()))})
	elapsed := time.Since(t0)
	if status != 504 {
		t.Fatalf("deadline rotate: status = %d, want 504 (%s)", status, body)
	}
	if kind := errKind(t, body); kind != "ErrCanceled" {
		t.Errorf("deadline rotate: kind = %q, want ErrCanceled", kind)
	}
	if elapsed > full {
		t.Errorf("deadline response took %v, full op only %v — deadline did not stop work", elapsed, full)
	}

	// The session must be fully usable afterwards.
	if status, body = doJSON(t, "POST", base+"/v1/tenants/dl/rotate",
		evalRequest{Op: "rotate", A: ct, By: 1}, nil); status != 200 {
		t.Fatalf("rotate after deadline: status %d: %s", status, body)
	}
}

// TestEvalRoundTrip checks the data plane end to end: encrypt → eval →
// decrypt recovers the expected plaintext arithmetic.
func TestEvalRoundTrip(t *testing.T) {
	_, base := startServer(t, Config{Slots: 2, Queue: 2})
	makeTenant(t, base, "rt", TenantConfig{LogN: 10, Levels: 2})

	status, body := doJSON(t, "POST", base+"/v1/tenants/rt/encrypt",
		encryptRequest{Values: []float64{1, 2, 3, 4}}, nil)
	if status != 200 {
		t.Fatalf("encrypt: %d %s", status, body)
	}
	var ct ctJSON
	if err := json.Unmarshal(body, &ct); err != nil {
		t.Fatal(err)
	}

	// (v + v) rotated by 1: slot i holds 2*v[i+1].
	status, body = doJSON(t, "POST", base+"/v1/tenants/rt/eval",
		evalRequest{Op: "add", A: ct.Ct, B: ct.Ct}, nil)
	if status != 200 {
		t.Fatalf("add: %d %s", status, body)
	}
	var sum evalResponse
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	status, body = doJSON(t, "POST", base+"/v1/tenants/rt/rotate",
		evalRequest{Op: "rotate", A: sum.Ct, By: 1}, nil)
	if status != 200 {
		t.Fatalf("rotate: %d %s", status, body)
	}
	var rot evalResponse
	if err := json.Unmarshal(body, &rot); err != nil {
		t.Fatal(err)
	}
	status, body = doJSON(t, "POST", base+"/v1/tenants/rt/decrypt",
		decryptRequest{Ct: rot.Ct, N: 3}, nil)
	if status != 200 {
		t.Fatalf("decrypt: %d %s", status, body)
	}
	var dec struct {
		Values []float64 `json:"values"`
	}
	if err := json.Unmarshal(body, &dec); err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 6, 8}
	for i, w := range want {
		if d := dec.Values[i] - w; d > 1e-3 || d < -1e-3 {
			t.Errorf("slot %d = %v, want %v", i, dec.Values[i], w)
		}
	}
}

// TestHealthzDuringLoad: the observability plane bypasses admission —
// a fully saturated server still answers health checks promptly — and
// once the rotate completes, /metrics exposes it in Prometheus text.
func TestHealthzDuringLoad(t *testing.T) {
	_, base := startServer(t, Config{Slots: 1, Queue: 1})
	ct := makeTenant(t, base, "hz", TenantConfig{LogN: 11, Levels: 2})

	// Occupy the only slot.
	rotated := make(chan int, 1)
	go func() {
		raw, _ := json.Marshal(evalRequest{Op: "rotate", A: ct, By: 1, Repeat: 64})
		resp, err := http.Post(base+"/v1/tenants/hz/rotate", "application/json", bytes.NewReader(raw))
		if err != nil {
			rotated <- 0
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rotated <- resp.StatusCode
	}()
	time.Sleep(30 * time.Millisecond)

	t0 := time.Now()
	status, body := doJSON(t, "GET", base+"/healthz", nil, nil)
	if status != 200 {
		t.Fatalf("healthz: %d %s", status, body)
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Errorf("healthz took %v under load", el)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", hz.Status)
	}
	if status, _ := doJSON(t, "GET", base+"/metrics", nil, nil); status != 200 {
		t.Errorf("metrics: status %d", status)
	}

	if status := <-rotated; status != 200 {
		t.Fatalf("rotate: status %d", status)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
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
