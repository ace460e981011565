package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// bootTenant creates a bootstrap-enabled tenant (deep chain, sparse
// secret) and returns a ciphertext dropped to level 0 — the natural
// bootstrap input. Provisioning one takes a few seconds of keygen, so
// the drain tests share a single server via this helper and run the
// expensive scenarios behind -short guards.
func bootTenant(t *testing.T, base, id string) string {
	t.Helper()
	status, body := doJSON(t, "PUT", base+"/v1/tenants/"+id,
		TenantConfig{Bootstrap: true, Seed: "drain test tenant " + id}, nil)
	if status != 200 {
		t.Fatalf("create bootstrap tenant: %d %s", status, body)
	}
	status, body = doJSON(t, "POST", base+"/v1/tenants/"+id+"/encrypt",
		encryptRequest{Values: []float64{0.5, -0.25, 0.125}}, nil)
	if status != 200 {
		t.Fatalf("encrypt: %d %s", status, body)
	}
	var ct ctJSON
	if err := json.Unmarshal(body, &ct); err != nil {
		t.Fatal(err)
	}
	// Drop the chain to level 0 so bootstrap has work to do.
	status, body = doJSON(t, "POST", base+"/v1/tenants/"+id+"/eval",
		evalRequest{Op: "droplevel", A: ct.Ct, By: 0}, nil)
	if status != 200 {
		t.Fatalf("drop level: %d %s", status, body)
	}
	var low evalResponse
	if err := json.Unmarshal(body, &low); err != nil {
		t.Fatal(err)
	}
	return low.Ct
}

// TestGracefulDrainSIGTERM is the headline drain scenario: a bootstrap
// is in flight when SIGTERM arrives. With a generous budget the
// in-flight request must complete normally (200), the listener must
// refuse new work immediately, and Serve must return once drained.
func TestGracefulDrainSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap keygen is expensive; skipping in -short mode")
	}
	srv, err := New(Config{Addr: "127.0.0.1:0", Slots: 1, Queue: 2,
		DrainBudget: 2 * time.Minute, DefaultDeadline: 5 * time.Minute,
		FlightPath: t.TempDir() + "/flight.json"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stopSig := srv.WatchSignals()
	defer stopSig()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	base := "http://" + srv.Addr()

	ct := bootTenant(t, base, "drain")

	// Launch the in-flight bootstrap and wait until it is admitted.
	type result struct {
		status int
		body   []byte
		err    error
	}
	bootDone := make(chan result, 1)
	go func() {
		raw, _ := json.Marshal(bootstrapRequest{Ct: ct})
		resp, err := http.Post(base+"/v1/tenants/drain/bootstrap", "application/json", bytes.NewReader(raw))
		if err != nil {
			bootDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		bootDone <- result{status: resp.StatusCode, body: body}
	}()
	waitFor(t, 10*time.Second, func() bool { return srv.adm.inFlight() > 0 })

	// SIGTERM mid-bootstrap.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, srv.Draining)

	// The listener must refuse new work while the bootstrap drains.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting connections during drain")
	}

	res := <-bootDone
	if res.err != nil {
		t.Fatalf("in-flight bootstrap during drain: %v", res.err)
	}
	if res.status != 200 {
		t.Errorf("in-flight bootstrap: status = %d, want 200 (%s)", res.status, res.body)
	}

	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v after drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after SIGTERM drain")
	}
	if srv.Recorder().Counter("fhed.drain.forced") != 0 {
		t.Error("drain was forced despite generous budget")
	}
	// The flight dump must exist and carry the drain reason.
	data, err := os.ReadFile(srv.cfg.FlightPath)
	if err != nil {
		t.Fatalf("flight dump missing: %v", err)
	}
	if !strings.Contains(string(data), `"drain"`) {
		t.Error("flight dump does not record the drain reason")
	}
}

// TestDrainBudgetCancelsInFlight is the other half of the contract: a
// drain budget far below the in-flight bootstrap's runtime cancels it —
// the client gets a typed 504, the drain finishes in a fraction of the
// bootstrap time, and nothing is left running. The budget sits an order
// of magnitude below the bootstrap's runtime, so the bootstrap cannot
// finish inside it even on a loaded host.
func TestDrainBudgetCancelsInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap keygen is expensive; skipping in -short mode")
	}
	srv, base := startServer(t, Config{Slots: 1, Queue: 2,
		DrainBudget: 5 * time.Millisecond, DefaultDeadline: 5 * time.Minute})
	ct := bootTenant(t, base, "cancel")

	// Reference: how long does this bootstrap take end to end?
	t0 := time.Now()
	status, body := doJSON(t, "POST", base+"/v1/tenants/cancel/bootstrap", bootstrapRequest{Ct: ct}, nil)
	full := time.Since(t0)
	if status != 200 {
		t.Fatalf("reference bootstrap: %d %s", status, body)
	}

	type result struct {
		status int
		kind   string
		err    error
	}
	bootDone := make(chan result, 1)
	go func() {
		raw, _ := json.Marshal(bootstrapRequest{Ct: ct})
		resp, err := http.Post(base+"/v1/tenants/cancel/bootstrap", "application/json", bytes.NewReader(raw))
		if err != nil {
			bootDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		rb, _ := io.ReadAll(resp.Body)
		var eb errorBody
		_ = json.Unmarshal(rb, &eb)
		bootDone <- result{status: resp.StatusCode, kind: eb.Kind}
	}()
	waitFor(t, 10*time.Second, func() bool { return srv.adm.inFlight() > 0 })

	t0 = time.Now()
	_ = srv.Shutdown() // forced drains report via the fhed.drain.forced counter
	drainTime := time.Since(t0)

	res := <-bootDone
	if res.err != nil {
		t.Fatalf("cancelled bootstrap transport error: %v", res.err)
	}
	if res.status != 504 || res.kind != "ErrCanceled" {
		t.Errorf("cancelled bootstrap: status %d kind %q, want 504/ErrCanceled", res.status, res.kind)
	}
	// Budget (5ms) + one cancellation latency (≤ one evaluator op) +
	// shutdown bookkeeping must beat re-running the whole bootstrap.
	if drainTime > full {
		t.Errorf("forced drain took %v, full bootstrap only %v — cancellation did not stop work", drainTime, full)
	}
	if got := srv.Recorder().Counter("fhed.drain.forced"); got != 1 {
		t.Errorf("fhed.drain.forced = %d, want 1", got)
	}
}

// TestDrainRefusesNewWork: requests racing the drain flag (accepted
// connection, draining server) get a clean 503 + Retry-After, not a
// hang.
func TestDrainRefusesNewWork(t *testing.T) {
	srv, base := startServer(t, Config{Slots: 1, Queue: 1})
	ct := makeTenant(t, base, "refuse", TenantConfig{LogN: 10, Levels: 2})

	// Keep one connection alive from before the drain: requests on it
	// bypass the closed listener and must hit the draining gate.
	client := &http.Client{}
	raw, _ := json.Marshal(evalRequest{Op: "rotate", A: ct, By: 1})
	resp, err := client.Post(base+"/v1/tenants/refuse/rotate", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = srv.Shutdown() }()
	waitFor(t, 5*time.Second, srv.Draining)

	resp, err = client.Post(base+"/v1/tenants/refuse/rotate", "application/json", bytes.NewReader(raw))
	if err == nil {
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 503 {
			t.Errorf("request during drain: status = %d, want 503 (%s)", resp.StatusCode, body)
		} else {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 during drain missing Retry-After")
			}
			var eb errorBody
			if json.Unmarshal(body, &eb) != nil || eb.Kind != "draining" {
				t.Errorf("503 body kind = %q, want draining (%s)", eb.Kind, body)
			}
		}
	}
	// err != nil is also acceptable: the kept-alive connection may have
	// been closed as idle before the request landed.
	wg.Wait()
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
