package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/ckks"
	"repro/internal/faultinject"
)

// Client is the Go client of fhed's HTTP API (docs/SERVER.md): one method
// per endpoint, ciphertexts as *ckks.Ciphertext in both directions, on
// the server's own codec (appendBody and decodeWire). A deadline on a
// method's ctx travels as the DeadlineHeader. A non-2xx reply is an *Error.
type Client struct {
	base    string
	timeout time.Duration // bounds every call when nonzero (the load run's)
}

// NewClient returns a client of the fhed at baseURL, e.g.
// "http://127.0.0.1:8377".
func NewClient(baseURL string) *Client { return &Client{base: baseURL} }

// replyGrace is how long a request waits past its deadline for the
// server's 504, so an expired deadline surfaces as fherr.ErrCanceled
// rather than as a transport error.
const replyGrace = 5 * time.Second

// Error is a non-2xx reply: its status, the kind its JSON body names, the
// message and the Retry-After hint of a 429 or 503. It unwraps to the
// sentinel its kind names, so callers write errors.Is(err, ErrQueueFull)
// or errors.Is(err, fherr.ErrPrecisionLoss).
type Error struct {
	Status     int
	Kind       string
	Message    string
	RetryAfter time.Duration
}

func (e *Error) Error() string { return fmt.Sprintf("fhed: %d %s: %s", e.Status, e.Kind, e.Message) }

// Unwrap returns the sentinel e.Kind names, or nil for an unknown kind.
func (e *Error) Unwrap() error { return sentinelOf(e.Kind) }

// CreateTenant creates tenant id (PUT /v1/tenants/{id}).
func (c *Client) CreateTenant(ctx context.Context, id string, cfg TenantConfig) (TenantStats, error) {
	var st TenantStats
	err := c.call(ctx, http.MethodPut, "/v1/tenants/"+id, cfg, nil, &st)
	return st, err
}

// DeleteTenant removes tenant id and its key material.
func (c *Client) DeleteTenant(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/v1/tenants/"+id, nil, nil, nil)
}

// Stats returns tenant id's key-vault occupancy, fired faults and shape.
func (c *Client) Stats(ctx context.Context, id string) (TenantStats, error) {
	var st TenantStats
	err := c.call(ctx, http.MethodGet, "/v1/tenants/"+id+"/stats", nil, nil, &st)
	return st, err
}

// Chaos arms fault f against tenant id (the server must run with Chaos).
func (c *Client) Chaos(ctx context.Context, id string, f faultinject.Fault) error {
	return c.call(ctx, http.MethodPost, "/v1/tenants/"+id+"/chaos", f, nil, nil)
}

// FlushVault drops tenant id's cached switching-key digits.
func (c *Client) FlushVault(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodPost, "/v1/tenants/"+id+"/vault/flush", struct{}{}, nil, nil)
}

// Encrypt encrypts values under tenant id's key.
func (c *Client) Encrypt(ctx context.Context, id string, values []float64) (*ckks.Ciphertext, error) {
	return c.ctCall(ctx, "/v1/tenants/"+id+"/encrypt", encryptRequest{Values: values}, nil)
}

// Decrypt decrypts ct under tenant id's key and returns its first n
// slots (n ≤ 0: the server's default of 8).
func (c *Client) Decrypt(ctx context.Context, id string, ct *ckks.Ciphertext, n int) ([]float64, error) {
	var rep decryptReply
	err := c.call(ctx, http.MethodPost, "/v1/tenants/"+id+"/decrypt", decryptRequest{N: n}, []ctField{{key: "ct", dst: &ct}}, &rep)
	return rep.Values, err
}

// Eval runs op args.Op on a and, when non-nil, b.
func (c *Client) Eval(ctx context.Context, id string, a, b *ckks.Ciphertext, args EvalArgs) (*ckks.Ciphertext, error) {
	return c.ctCall(ctx, "/v1/tenants/"+id+"/eval", args.request(), []ctField{{key: "a", dst: &a}, {key: "b", dst: &b}})
}

// Rotate rotates a by args.By (args.Op is ignored).
func (c *Client) Rotate(ctx context.Context, id string, a *ckks.Ciphertext, args EvalArgs) (*ckks.Ciphertext, error) {
	return c.ctCall(ctx, "/v1/tenants/"+id+"/rotate", args.request(), []ctField{{key: "a", dst: &a}})
}

func (a EvalArgs) request() evalRequest {
	return evalRequest{Op: a.Op, By: a.By, Repeat: a.Repeat, Guard: a.Guard}
}

// Bootstrap refreshes ct on a tenant created with Bootstrap.
func (c *Client) Bootstrap(ctx context.Context, id string, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	return c.ctCall(ctx, "/v1/tenants/"+id+"/bootstrap", bootstrapRequest{}, []ctField{{key: "ct", dst: &ct}})
}

// Healthz returns the server's liveness report.
func (c *Client) Healthz(ctx context.Context) (Health, error) {
	var h Health
	err := c.call(ctx, http.MethodGet, "/healthz", nil, nil, &h)
	return h, err
}

// ctCall posts a data-plane request whose reply is a ciphertext.
func (c *Client) ctCall(ctx context.Context, path string, req any, in []ctField) (*ckks.Ciphertext, error) {
	var rep ctReply
	var ct *ckks.Ciphertext
	err := c.call(ctx, http.MethodPost, path, req, in, &rep, ctField{key: "ct", str: &rep.Ct, dst: &ct})
	return ct, err
}

// call sends req (nil: no body) with the non-nil ciphertext members in,
// built as the server builds a reply (without any, json.Marshal(req) as
// it stands), and decodes a 2xx reply into reply (nil: discarded) and its
// ciphertext members out.
func (c *Client) call(ctx context.Context, method, path string, req any, in []ctField, reply any, out ...ctField) error {
	var body []byte
	if req != nil {
		meta, err := json.Marshal(req)
		if err != nil {
			return err
		}
		cts := make([]wireCt, 0, len(in))
		for _, f := range in {
			if *f.dst == nil { // the server answers a missing operand
				continue
			}
			w := wireCt{key: f.key}
			if _, err := (*f.dst).WriteTo((*sliceWriter)(&w.raw)); err != nil {
				return err
			}
			cts = append(cts, w)
		}
		body = meta
		if len(cts) > 0 {
			body = appendBody(nil, cts, meta)
		}
	}
	hreq, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hctx, cancel := c.withDeadline(ctx, hreq.Header)
	defer cancel()
	resp, err := http.DefaultClient.Do(hreq.WithContext(hctx))
	if err != nil {
		if ctx.Err() != nil { // the caller's deadline or cancellation
			return fmt.Errorf("fhed client: %s %s: %w", method, path, ctx.Err())
		}
		return err
	}
	defer resp.Body.Close()
	p := getBuf()
	defer putBuf(p)
	if *p, err = readAll(resp.Body, *p); err != nil {
		return fmt.Errorf("fhed client: %s %s: reading the reply: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return replyError(resp, *p)
	}
	if reply == nil {
		return nil
	}
	// decodeWire reports a bad body as the server's ErrUsage; here the
	// fault is the server's, not the caller's, so only its text is kept.
	if err := decodeWire(*p, reply, out); err != nil {
		return fmt.Errorf("fhed client: %s %s: malformed reply: %v", method, path, err)
	}
	return nil
}

// withDeadline moves the call's deadline, the earlier of ctx's and
// c.timeout's if either is set, into the DeadlineHeader of h and returns
// the context the exchange runs under: it ends replyGrace after that
// deadline, or as soon as ctx is cancelled.
func (c *Client) withDeadline(ctx context.Context, h http.Header) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if t := time.Now().Add(c.timeout); c.timeout > 0 && (!ok || t.Before(dl)) {
		dl, ok = t, true
	}
	if !ok {
		return context.WithCancel(ctx)
	}
	h.Set(DeadlineHeader, strconv.FormatInt(max(time.Until(dl).Milliseconds(), 1), 10))
	hctx, cancel := context.WithDeadline(context.WithoutCancel(ctx), dl.Add(replyGrace))
	stop := context.AfterFunc(ctx, func() {
		if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			cancel()
		}
	})
	return hctx, func() { stop(); cancel() }
}

// replyError decodes a non-2xx reply; a body that is not the server's
// JSON error body is kept whole as the message.
func replyError(resp *http.Response, body []byte) *Error {
	e := &Error{Status: resp.StatusCode, Message: string(bytes.TrimSpace(body))}
	var eb errorBody
	if json.Unmarshal(body, &eb) == nil && eb.Kind != "" {
		e.Kind, e.Message = eb.Kind, eb.Error
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		e.RetryAfter = time.Duration(sec) * time.Second
	}
	return e
}
