package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// DebugServer is a pprof + /metrics + /healthz HTTP server with a
// bounded-drain shutdown, so CLIs can serve diagnostics for the duration
// of a command and still exit cleanly on SIGINT instead of leaking the
// listener.
type DebugServer struct {
	Addr    string // bound address (useful when started with ":0")
	srv     *http.Server
	started time.Time
	rec     *Recorder
}

// healthz is the /healthz response body: liveness plus just enough
// recorder state to tell at a glance whether telemetry is flowing and
// whether the flight ring has started evicting.
type healthz struct {
	Status       string  `json:"status"`
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	UptimeSec    float64 `json:"uptime_seconds"`
	Recorder     bool    `json:"recorder_attached"`
	Spans        int     `json:"retained_spans,omitempty"`
	DroppedSpans uint64  `json:"dropped_spans,omitempty"`
	Goroutines   int     `json:"goroutines"`
}

// NewDebugServer serves Go pprof endpoints (/debug/pprof/...), a
// Prometheus /metrics endpoint and a /healthz liveness endpoint for the
// given recorder on addr, in a background goroutine. The recorder may be
// nil, in which case /metrics serves an empty exposition and /healthz
// reports recorder_attached=false. Stop the server with Shutdown.
func NewDebugServer(addr string, r *Recorder) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	d := &DebugServer{started: time.Now(), rec: r}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", d.serveHealthz)
	mux.HandleFunc("/dash", d.serveDash)
	mux.HandleFunc("/dash/data", d.serveDashData)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	d.srv = srv
	d.Addr = ln.Addr().String()
	go func() { _ = srv.Serve(ln) }()
	return d, nil
}

func (d *DebugServer) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	h := healthz{
		Status:     "ok",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		UptimeSec:  time.Since(d.started).Seconds(),
		Recorder:   d.rec != nil,
		Goroutines: runtime.NumGoroutine(),
	}
	if d.rec != nil {
		d.rec.mu.Lock()
		h.Spans = len(d.rec.spans)
		d.rec.mu.Unlock()
		h.DroppedSpans = d.rec.Counter(DroppedSpansCounter)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h)
}

// Shutdown drains in-flight requests for at most the given timeout, then
// force-closes whatever remains. Safe to call on a nil receiver.
func (d *DebugServer) Shutdown(timeout time.Duration) error {
	if d == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		return d.srv.Close()
	}
	return nil
}
