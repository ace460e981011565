// Command fhed is the fault-tolerant multi-tenant FHE evaluation
// daemon, plus its load-generator client.
//
// Server mode (default):
//
//	fhed -addr :8377 -slots 2 -queue 8 -flight flight.json
//
// exposes the tenant/encrypt/eval/rotate/bootstrap API (see
// docs/SERVER.md), drains gracefully on SIGTERM, and writes a flight
// dump on exit. -chaos additionally enables the per-tenant
// fault-injection endpoint — strictly an opt-in for resilience testing.
//
// Load mode:
//
//	fhed -load                                 # self-hosted target
//	fhed -load -url http://host:8377 -chaos    # external target
//
// ramps offered concurrency against a target server (an in-process one
// when -url is empty), retries backpressure with jittered exponential
// backoff honoring Retry-After, optionally drives fault-inject/detect/
// recover cycles, logs one line per window, and exits nonzero on any
// transport error, timeout, missed chaos cycle or a first window with no
// completed request.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/fherr"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		load = flag.Bool("load", false, "run the load generator instead of the server")

		// server flags
		addr    = flag.String("addr", "127.0.0.1:8377", "listen address")
		slots   = flag.Int("slots", 2, "concurrent FHE executions")
		queue   = flag.Int("queue", 8, "admission waiting-room capacity")
		dl      = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		drain   = flag.Duration("drain", 10*time.Second, "graceful-drain budget on SIGTERM")
		tenants = flag.Int("tenants", 16, "max tenants")
		chaos   = flag.Bool("chaos", false, "enable the fault-injection endpoint (testing only)")
		flight  = flag.String("flight", "", "write a flight dump here on drain")

		// load flags
		url    = flag.String("url", "", "target server URL (empty: self-host an in-process server)")
		window = flag.Duration("window", 2*time.Second, "duration of each concurrency window")
		ramp   = flag.String("ramp", "1,2,4,8,16", "comma-separated offered-concurrency ladder")
		repeat = flag.Int("repeat", 8, "rotations chained per request")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds)
	var err error
	if *load {
		err = runLoad(*url, *ramp, server.Config{
			Addr: "127.0.0.1:0", Slots: *slots, Queue: *queue, Chaos: *chaos, FlightPath: *flight, Log: logger,
		}, server.LoadConfig{Window: *window, Repeat: *repeat, Chaos: *chaos, Log: logger})
	} else {
		err = runServe(server.Config{
			Addr: *addr, Slots: *slots, Queue: *queue, DefaultDeadline: *dl,
			DrainBudget: *drain, MaxTenants: *tenants, Chaos: *chaos,
			FlightPath: *flight, Log: logger,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhed:", err)
		os.Exit(fherr.ExitCode(err))
	}
}

func runServe(cfg server.Config) error {
	srv, err := server.New(cfg, obs.NewRecorder())
	if err != nil {
		return err
	}
	stop := srv.WatchSignals()
	defer stop()
	return srv.Serve()
}

// runLoad runs the load generator against url, or, when url is empty,
// against an in-process server built from host, drained (with flight
// dump) when the run finishes.
func runLoad(url, ramp string, host server.Config, cfg server.LoadConfig) error {
	for _, tok := range strings.FieldsFunc(ramp, func(r rune) bool { return r == ',' }) {
		n, err := strconv.Atoi(tok)
		if err != nil || n < 1 {
			return fherr.Errorf(fherr.ErrUsage, "fhed: bad -ramp entry %q", tok)
		}
		cfg.Ramp = append(cfg.Ramp, n)
	}
	cfg.BaseURL = url
	if url == "" {
		srv, err := server.New(host, obs.NewRecorder())
		if err != nil {
			return err
		}
		go func() { _ = srv.Serve() }()
		defer func() { _ = srv.Shutdown() }()
		cfg.BaseURL = "http://" + srv.Addr()
		host.Log.Printf("loadgen: self-hosted fhed on %s (slots=%d queue=%d chaos=%v)",
			srv.Addr(), host.Slots, host.Queue, host.Chaos)
	}
	_, err := server.RunLoad(context.Background(), cfg)
	return err
}
