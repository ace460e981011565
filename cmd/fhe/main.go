// Command fhe is a file-based front end to the functional CKKS library:
// generate keys, encrypt a vector of numbers, compute on the ciphertext
// files, and decrypt — a miniature of the cloud workflow the paper's
// introduction describes (the client keeps the secret key; ciphertexts
// and compressed evaluation keys travel to the server).
//
//	fhe keygen  -dir keys [-logn 12] [-levels 5]
//	fhe encrypt -dir keys -out ct.bin  1.5 2.5 3.5 …
//	fhe add     -dir keys -out sum.bin  a.bin b.bin
//	fhe mul     -dir keys -out prod.bin a.bin b.bin
//	fhe rotate  -dir keys -out rot.bin -by 3 a.bin
//	fhe decrypt -dir keys [-slots 8] ct.bin
//	fhe info    ct.bin
//
// The compute subcommands are the ckks op table (internal/ckks/ops.go),
// the same one fhed's eval endpoint dispatches through: add, sub and mul
// take two ciphertext files; square, rescale, droplevel, rotate,
// conjugate and innersum take one, with -by as the target level, the
// rotation step or the inner-sum width. `sum -n N` is the CLI's spelling
// of `innersum -by N`. The output defaults to <subcommand>.bin. Every
// rot<k>.bin in the key directory is loaded, so a missing rotation key
// or a bad inner-sum width fails in the library with a typed error
// (exit 3), as it does in fhed.
//
// A leading -debug-addr ADDR serves net/http/pprof under /debug/pprof,
// the evaluator's ckks.* counters and latency histograms under /metrics
// (Prometheus text) and a liveness report under /healthz for the
// duration of the command:
//
//	fhe -debug-addr localhost:6060 mul -dir keys -out prod.bin a.bin b.bin
//
// A leading -stats prints an end-of-run telemetry table: per-op latency
// percentiles (from the span histograms), kernel and traffic counters,
// and runtime memory gauges:
//
//	fhe -stats mul -dir keys -out prod.bin a.bin b.bin
//
// A leading -chaos runs the fault-injection smoke suite against an
// in-memory pipeline and writes a machine-readable report (default
// CHAOS.json, override with -chaos-out):
//
//	fhe -chaos -chaos-out report.json
//
// Whenever a fault is classified — a recovered panic at an API boundary
// or a chaos-suite injection — the flight recorder dumps its bounded
// window (the last spans, all counters, gauges and histograms) to
// FLIGHT.json (override with a leading -flight-out FILE).
//
// Exit codes: 0 success, 1 generic failure (I/O, missing files),
// 2 usage errors, 3 ciphertext validation failures (level/scale/domain
// mismatches, checksum violations), 4 internal errors (recovered
// panics).
package main

import (
	"fmt"
	"os"

	"repro/internal/fhecli"
	"repro/internal/fherr"
)

func main() {
	err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fhe:", err)
	}
	os.Exit(fherr.ExitCode(err))
}

// run isolates the deferred panic recovery from main's os.Exit, which
// would skip deferred functions.
func run() (err error) {
	defer fherr.RecoverTo(&err)
	return fhecli.Run(os.Args[1:], os.Stdout)
}
