package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/ckks"
	"repro/internal/fherr"
)

// bootTenant creates a bootstrap-enabled tenant (deep chain, sparse
// secret) and returns a ciphertext dropped to level 0 — the natural
// bootstrap input. Provisioning one takes a few seconds of keygen, so
// the drain tests share a single server via this helper and run the
// expensive scenarios behind -short guards.
func bootTenant(t *testing.T, base, id string) *ckks.Ciphertext {
	t.Helper()
	c, ctx := NewClient(base), t.Context()
	if _, err := c.CreateTenant(ctx, id, TenantConfig{Bootstrap: true, Seed: "drain test tenant " + id}); err != nil {
		t.Fatalf("create bootstrap tenant: %v", err)
	}
	ct, err := c.Encrypt(ctx, id, []float64{0.5, -0.25, 0.125})
	if err != nil {
		t.Fatalf("encrypt: %v", err)
	}
	// Drop the chain to level 0 so bootstrap has work to do.
	low, err := c.Eval(ctx, id, ct, nil, EvalArgs{Op: "droplevel", By: 0})
	if err != nil {
		t.Fatalf("drop level: %v", err)
	}
	return low
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
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()
	bootDone := make(chan error, 1)
	go func() {
		_, err := NewClient(base).Bootstrap(ctx, "drain", ct)
		bootDone <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return srv.adm.inFlight() > 0 })

	// SIGTERM mid-bootstrap.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, srv.Draining)

	// The listener must refuse new work while the bootstrap drains.
	if _, err := NewClient(base).Healthz(ctx); err == nil {
		t.Error("listener still accepting connections during drain")
	}

	if err := <-bootDone; err != nil {
		t.Errorf("in-flight bootstrap during drain: %v, want a result", err)
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
	c := NewClient(base)
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Minute)
	defer cancel()
	t0 := time.Now()
	if _, err := c.Bootstrap(ctx, "cancel", ct); err != nil {
		t.Fatalf("reference bootstrap: %v", err)
	}
	full := time.Since(t0)

	bootDone := make(chan error, 1)
	go func() {
		_, err := c.Bootstrap(ctx, "cancel", ct)
		bootDone <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return srv.adm.inFlight() > 0 })

	t0 = time.Now()
	_ = srv.Shutdown() // forced drains report via the fhed.drain.forced counter
	drainTime := time.Since(t0)

	wantError(t, "cancelled bootstrap", <-bootDone, 504, fherr.ErrCanceled)
	// Budget (5ms) + one cancellation latency (≤ one evaluator op) +
	// shutdown bookkeeping must beat re-running the whole bootstrap.
	if drainTime > full {
		t.Errorf("forced drain took %v, full bootstrap only %v — cancellation did not stop work", drainTime, full)
	}
	if got := srv.Recorder().Counter("fhed.drain.forced"); got != 1 {
		t.Errorf("fhed.drain.forced = %d, want 1", got)
	}
}

// TestDrainRefusesNewWork: a request on a connection the server accepted
// before the drain began gets a clean 503 with ErrDraining and
// Retry-After, not a hang and not a result. The connection has sent its
// request line but not the end of its headers when Shutdown starts: it
// is neither idle (Shutdown would close it) nor refused (the listener is
// closed only for new connections), so Shutdown waits for it and the
// request meets the draining gate.
func TestDrainRefusesNewWork(t *testing.T) {
	srv, err := New(Config{Addr: "127.0.0.1:0", Slots: 1, Queue: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	accepted := map[string]bool{} // client addresses of accepted connections
	srv.http.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			mu.Lock()
			accepted[c.RemoteAddr().String()] = true
			mu.Unlock()
		}
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	ct := makeTenant(t, "http://"+srv.Addr(), "refuse", TenantConfig{LogN: 10, Levels: 2})

	a := wireCt{key: "a"}
	if _, err := ct.WriteTo((*sliceWriter)(&a.raw)); err != nil {
		t.Fatal(err)
	}
	meta, _ := json.Marshal(evalRequest{By: 1})
	body := appendBody(nil, []wireCt{a}, meta)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /v1/tenants/refuse/rotate HTTP/1.1\r\nHost: %s\r\n", srv.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return accepted[conn.LocalAddr().String()]
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = srv.Shutdown() }()
	waitFor(t, 5*time.Second, srv.Draining)

	if _, err := fmt.Fprintf(conn, "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the reply to a request during drain: %v", err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", resp.StatusCode)
	}
	e := replyError(resp, reply)
	wantError(t, "request during drain", e, 503, ErrDraining)
	if e.RetryAfter == 0 {
		t.Error("503 during drain missing Retry-After")
	}
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after drain", err)
	}
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
