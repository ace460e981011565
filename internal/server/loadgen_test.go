package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestLoadGeneratorSmoke runs the real load generator against an
// in-process server: the ramp's top rung deliberately exceeds
// slots+queue, so the run must show backpressure, and RunLoad's verdict
// — no transport error, no timeout, requests completed on the first rung,
// every chaos cycle detected and recovered — must pass.
func TestLoadGeneratorSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load run takes a few seconds; skipping in -short mode")
	}
	srv, base := startServer(t, Config{Slots: 1, Queue: 2, Chaos: true})

	// Repeat is the op weight: it must make one request expensive enough
	// (~100ms of evaluator time) that eight workers sharing this CPU can
	// out-offer a single slot — with a cheap op the slot frees faster
	// than the clients can fill the queue and saturation never happens.
	rep, err := RunLoad(t.Context(), LoadConfig{
		BaseURL: base,
		Window:  600 * time.Millisecond,
		Ramp:    []int{1, 8},
		Repeat:  16,
		Chaos:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if top := rep.Windows[len(rep.Windows)-1]; top.Rejected == 0 || top.Retries == 0 {
		t.Errorf("top rung %+v: the ramp did not exceed capacity", top)
	}
	if rep.Chaos == nil || rep.Chaos.Cycles != chaosCycles {
		t.Errorf("chaos = %+v, want %d cycles", rep.Chaos, chaosCycles)
	}

	// The server survived the whole run: no panics escaped isolation.
	if got := srv.Recorder().Counter("fhed.panics"); got != 0 {
		t.Errorf("fhed.panics = %d during load", got)
	}
}

// TestLoadRejectionsCountedOnce: against a server that provisions the
// tenant and then sheds every rotate, one logical request makes
// loadRetries+1 attempts; each is one rejection, all but the first are
// retries, and RunLoad fails the run because no request completed.
func TestLoadRejectionsCountedOnce(t *testing.T) {
	reply := appendBody(nil, []wireCt{{"ct", ctBytes(t, wireTestCt(t, 5, 1))}}, []byte("{}"))
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/rotate") {
			writeError(w, ErrQueueFull, 0)
			return
		}
		_, _ = w.Write(reply) // tenant create and encrypt
	}))
	defer stub.Close()

	// The window closes long before the first request's backoff ends.
	rep, err := RunLoad(t.Context(), LoadConfig{BaseURL: stub.URL, Window: 100 * time.Millisecond, Ramp: []int{1}, Repeat: 1})
	want := WindowStats{Concurrency: 1, Rejected: loadRetries + 1, Retries: loadRetries}
	if err == nil || rep == nil || len(rep.Windows) != 1 || rep.Windows[0] != want {
		t.Errorf("RunLoad = %+v, %v; want one window %+v and a failed verdict", rep, err, want)
	}
}
