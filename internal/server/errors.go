// Package server implements fhed, a fault-tolerant multi-tenant FHE
// evaluation daemon over the internal/ckks stack.
//
// The server's robustness contract has four legs:
//
//   - Admission control: a bounded waiting room in front of a fixed pool
//     of execution slots. When the room is full the server answers 429
//     with a Retry-After hint instead of queueing unboundedly — load
//     beyond capacity degrades to fast rejections, never to timeouts.
//   - Deadlines: every request carries a context deadline (server
//     default, capped per-request override). The deadline propagates
//     through the evaluator's op context into ring-level fan-outs, so an
//     expired request stops burning cores mid-NTT, not at the next
//     HTTP write.
//   - Panic isolation: evaluator panics — including worker-pool panics
//     re-thrown by ring.Parallel — are converted to typed fherr
//     sentinels at the handler boundary and mapped to HTTP statuses by
//     one table (fherr.HTTPStatus). One tenant's poisoned ciphertext
//     cannot take down the process.
//   - Graceful drain: SIGTERM stops the listener, lets in-flight work
//     finish inside a drain budget, then cancels whatever remains (the
//     ops abort with typed errors, not kills) and flushes a flight dump.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/fherr"
)

// Server-level sentinels: conditions that arise in the HTTP/admission
// layer rather than inside the FHE stack. They get their own statuses
// before fherr.HTTPStatus sees the error.
var (
	// ErrQueueFull: the admission waiting room is at capacity → 429.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining: the server received SIGTERM and is winding down → 503.
	ErrDraining = errors.New("server: draining, not accepting work")
	// ErrTenantUnknown: request names a tenant that was never created → 404.
	ErrTenantUnknown = errors.New("server: unknown tenant")
	// ErrTenantExists: tenant create with an id already registered → 409.
	ErrTenantExists = errors.New("server: tenant already exists")
	// ErrTenantLimit: tenant registry at capacity → 429.
	ErrTenantLimit = errors.New("server: tenant limit reached")
	// ErrChaosDisabled: fault-injection endpoint on a server started
	// without -chaos → 403. Chaos is an operator opt-in, never on by
	// default.
	ErrChaosDisabled = errors.New("server: chaos interface disabled")
	// ErrBootstrapDisabled: bootstrap on a tenant created without
	// bootstrap=true → 412 (same family as missing-key).
	ErrBootstrapDisabled = errors.New("server: tenant has no bootstrapping keys")
)

// serverErrors is the one table of server-level sentinels: the HTTP
// status each maps to and the kind that names it on the wire. Errors it
// does not list fall through to fherr: the status of fherr.HTTPStatus
// and the kind of fherr.Sentinels, so the FHE failure taxonomy maps to
// the wire in exactly one place.
var serverErrors = []struct {
	err    error
	status int
	kind   string
}{
	{ErrQueueFull, http.StatusTooManyRequests, "queue-full"},
	{ErrDraining, http.StatusServiceUnavailable, "draining"},
	{ErrTenantUnknown, http.StatusNotFound, "tenant-unknown"},
	{ErrTenantExists, http.StatusConflict, "tenant-exists"},
	{ErrTenantLimit, http.StatusTooManyRequests, "tenant-limit"},
	{ErrChaosDisabled, http.StatusForbidden, "chaos-disabled"},
	{ErrBootstrapDisabled, http.StatusPreconditionFailed, "bootstrap-disabled"},
}

// wireError is the HTTP status of a handler error and the short stable
// kind its JSON body carries, so clients switch on failure class without
// parsing prose.
func wireError(err error) (status int, kind string) {
	for _, e := range serverErrors {
		if errors.Is(err, e.err) {
			return e.status, e.kind
		}
	}
	for name, sentinel := range fherr.Sentinels() {
		if errors.Is(err, sentinel) {
			return fherr.HTTPStatus(err), name
		}
	}
	return fherr.HTTPStatus(err), "internal"
}

// sentinelOf is the sentinel a wire kind names, or nil.
func sentinelOf(kind string) error {
	for _, e := range serverErrors {
		if e.kind == kind {
			return e.err
		}
	}
	return fherr.Sentinels()[kind]
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error      string `json:"error"`
	Kind       string `json:"kind"`
	Status     int    `json:"status"`
	RetryAfter int    `json:"retry_after_sec,omitempty"`
}

// writeError renders err as a JSON error response. retryAfter > 0 adds
// the Retry-After header (429/503 backpressure hint). A client that
// already went away gets nothing written; the status is recorded by the
// caller's metrics either way.
func writeError(w http.ResponseWriter, err error, retryAfter int) {
	status, kind := wireError(err)
	body := errorBody{Error: err.Error(), Kind: kind, Status: status}
	if retryAfter > 0 && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) {
		body.RetryAfter = retryAfter
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeJSON renders a 200 response with the given body.
func writeJSON(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}

// badRequest wraps a decode/validation failure as a typed usage error
// (→ 400 via fherr.HTTPStatus).
func badRequest(format string, args ...any) error {
	return fherr.Errorf(fherr.ErrUsage, "server: %s", fmt.Sprintf(format, args...))
}
