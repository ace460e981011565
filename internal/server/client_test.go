package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fherr"
)

// TestClientErrors walks every sentinel of the server's error table and
// of fherr, as TestHTTPStatusExhaustive walks fherr's: written by the
// handlers' writeError and read back by the Client, each keeps its status,
// kind and message, its Retry-After when it is backpressure, and
// errors.Is. A reply the Client cannot decode is the client's own error —
// not a reply error, and not the caller's ErrUsage — and an error reply
// that is not the server's JSON keeps its status and text.
func TestClientErrors(t *testing.T) {
	type entry struct{ sentinel, err error }
	byKind := map[string]entry{}
	for _, e := range serverErrors {
		byKind[e.kind] = entry{e.err, fmt.Errorf("handler: %w", e.err)}
	}
	for name, s := range fherr.Sentinels() {
		byKind[name] = entry{s, fherr.Errorf(s, "handler: %s", name)}
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch tenant, route, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/tenants/"), "/"); {
		case tenant != "bad":
			writeError(w, byKind[tenant].err, 3)
		case route == "rotate":
			_, _ = w.Write([]byte(`{"ct":"not base64!","level":1}`))
		case route == "stats":
			_, _ = w.Write([]byte(`{"id":`))
		default:
			http.Error(w, "bad gateway", http.StatusBadGateway)
		}
	}))
	defer stub.Close()
	c, ctx := NewClient(stub.URL), t.Context()

	for kind, in := range byKind {
		err := c.FlushVault(ctx, kind)
		status, _ := wireError(in.sentinel)
		var e *Error
		if !errors.As(err, &e) || e.Status != status || e.Kind != kind || e.Message != in.err.Error() || !errors.Is(err, in.sentinel) {
			t.Errorf("%s: got %v, want status %d, its message and errors.Is %v", kind, err, status, in.sentinel)
			continue
		}
		if backoff := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable; backoff != (e.RetryAfter == 3*time.Second) {
			t.Errorf("%s: Retry-After %v on a %d", kind, e.RetryAfter, status)
		}
	}

	var e *Error
	for _, err := range []error{errOf(c.Rotate(ctx, "bad", wireTestCt(t, 5, 1), EvalArgs{By: 1})), errOf(c.Stats(ctx, "bad"))} {
		if err == nil || errors.As(err, &e) || errors.Is(err, fherr.ErrUsage) {
			t.Errorf("malformed reply: %v (%T), want a client-side error", err, err)
		}
	}
	if err := c.FlushVault(ctx, "bad"); !errors.As(err, &e) || e.Status != http.StatusBadGateway || e.Message != "bad gateway" || errors.Unwrap(err) != nil {
		t.Errorf("plain-text 502: %v, want status 502 with its text and no sentinel", err)
	}
}

// errOf is the error of a call whose result a test does not need.
func errOf(_ any, err error) error { return err }
