package server

import (
	"context"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/ckks"
	"repro/internal/faultinject"
	"repro/internal/fherr"
)

// DeadlineHeader is the per-request deadline override, in milliseconds,
// capped by Config.MaxDeadline.
const DeadlineHeader = "X-Fhed-Deadline-Ms"

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	// Observability plane: never admitted, never blocked by the queue —
	// a saturated server still answers health checks.
	mux.HandleFunc("GET /healthz", s.serveHealthz)
	mux.HandleFunc("GET /metrics", s.serveMetrics)

	// Control plane: cheap registry ops (tenant create is the exception
	// — keygen is real work — but it is rare and self-limiting via
	// MaxTenants).
	mux.HandleFunc("PUT /v1/tenants/{tenant}", s.controlPlane("tenant.create", s.handleTenantCreate))
	mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.controlPlane("tenant.delete", s.handleTenantDelete))
	mux.HandleFunc("GET /v1/tenants/{tenant}/stats", s.controlPlane("tenant.stats", s.handleTenantStats))
	mux.HandleFunc("POST /v1/tenants/{tenant}/chaos", s.controlPlane("tenant.chaos", s.handleChaos))
	mux.HandleFunc("POST /v1/tenants/{tenant}/vault/flush", s.controlPlane("tenant.flush", s.handleVaultFlush))

	// Data plane: admission-controlled, deadline-bound FHE work.
	mux.HandleFunc("POST /v1/tenants/{tenant}/encrypt", s.dataPlane("encrypt", s.handleEncrypt))
	mux.HandleFunc("POST /v1/tenants/{tenant}/decrypt", s.dataPlane("decrypt", s.handleDecrypt))
	mux.HandleFunc("POST /v1/tenants/{tenant}/eval", s.dataPlane("eval", s.handleEval))
	mux.HandleFunc("POST /v1/tenants/{tenant}/rotate", s.dataPlane("rotate", s.handleRotate))
	mux.HandleFunc("POST /v1/tenants/{tenant}/bootstrap", s.dataPlane("bootstrap", s.handleBootstrap))
	return mux
}

type opHandler func(ctx context.Context, r *http.Request) (any, error)

// dataPlane wraps an FHE handler with the full robustness stack, in
// order: draining check → deadline binding → admission → panic
// isolation → typed error mapping. Drain cancellation is spliced into
// the request context via AfterFunc, so a request that was admitted
// before SIGTERM still aborts (typed) when the drain budget expires.
func (s *Server) dataPlane(op string, h opHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := s.rec.StartOp("fhed.http." + op)
		defer sp.End()
		s.rec.Add("fhed.requests", 1)
		if s.draining.Load() {
			s.rec.Add("fhed.rejected.draining", 1)
			writeError(w, ErrDraining, s.adm.retryAfterSec())
			return
		}
		deadline, err := s.requestDeadline(r)
		if err != nil {
			s.fail(w, r, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), deadline)
		defer cancel()
		stopAfter := context.AfterFunc(s.base, cancel)
		defer stopAfter()

		release, err := s.adm.acquire(ctx)
		if err != nil {
			s.fail(w, r, err)
			return
		}
		// The slot bounds FHE work, not the write to the client: it is
		// released before the reply goes out, so a client holding its
		// reply never finds the slot still taken.
		out, err := s.isolated(ctx, r, h)
		release()
		if err != nil {
			s.fail(w, r, err)
			return
		}
		if rep, ok := out.(*wireReply); ok {
			rep.write(w)
			return
		}
		writeJSON(w, out)
	}
}

// controlPlane wraps a registry handler: no admission, no deadline
// beyond the client's own, but the same draining gate (except stats —
// reading state during drain is fine) and panic isolation.
func (s *Server) controlPlane(op string, h opHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sp := s.rec.StartOp("fhed.http." + op)
		defer sp.End()
		s.rec.Add("fhed.requests", 1)
		if s.draining.Load() && r.Method != http.MethodGet {
			s.rec.Add("fhed.rejected.draining", 1)
			writeError(w, ErrDraining, s.adm.retryAfterSec())
			return
		}
		out, err := s.isolated(r.Context(), r, h)
		if err != nil {
			s.fail(w, r, err)
			return
		}
		writeJSON(w, out)
	}
}

// isolated runs h with panic isolation: any panic — an evaluator bug, a
// poisoned ciphertext driving a kernel off a cliff, a worker-pool panic
// rethrown by ring.Parallel — becomes a typed error via the same
// classifier the CLI uses, and the process keeps serving every other
// tenant.
func (s *Server) isolated(ctx context.Context, r *http.Request, h opHandler) (out any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.rec.Add("fhed.panics", 1)
			err = fherr.FromPanic(rec)
			s.cfg.Log.Printf("fhed: isolated panic in %s %s: %v", r.Method, r.URL.Path, err)
		}
	}()
	return h(ctx, r)
}

// fail maps an error onto the wire, with one wrinkle: when the failure
// is a cancellation and it was the *client* that went away (rather than
// the deadline or the drain), the status is 499 and only the log sees
// it — there is no one left to read a 504.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, err error) {
	s.rec.Add("fhed.errors", 1)
	if fherr.HTTPStatus(err) == http.StatusGatewayTimeout && r.Context().Err() != nil && !s.draining.Load() {
		s.rec.Add("fhed.client_gone", 1)
		w.WriteHeader(fherr.StatusClientClosedRequest)
		return
	}
	writeError(w, err, s.adm.retryAfterSec())
}

// requestDeadline resolves the op deadline: the server default, or the
// DeadlineHeader override clamped to MaxDeadline.
func (s *Server) requestDeadline(r *http.Request) (time.Duration, error) {
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return s.cfg.DefaultDeadline, nil
	}
	ms, err := strconv.Atoi(h)
	if err != nil || ms <= 0 {
		return 0, badRequest("bad %s header %q", DeadlineHeader, h)
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d, nil
}

// --- control plane --------------------------------------------------

func (s *Server) handleTenantCreate(_ context.Context, r *http.Request) (any, error) {
	id := r.PathValue("tenant")
	if id == "" {
		return nil, badRequest("empty tenant id")
	}
	var cfg TenantConfig
	if err := s.decode(r, &cfg); err != nil {
		return nil, err
	}
	sess, err := s.reg.create(id, cfg)
	if err != nil {
		return nil, err
	}
	s.cfg.Log.Printf("fhed: tenant %q created (logN=%d levels=%d bootstrap=%v budget=%dB)",
		id, sess.params.LogN(), sess.params.MaxLevel(), sess.btp != nil, cfg.KeyBudgetBytes)
	return sess.stats(), nil
}

func (s *Server) handleTenantDelete(_ context.Context, r *http.Request) (any, error) {
	id := r.PathValue("tenant")
	if err := s.reg.remove(id); err != nil {
		return nil, err
	}
	s.cfg.Log.Printf("fhed: tenant %q deleted", id)
	return map[string]string{"deleted": id}, nil
}

func (s *Server) handleTenantStats(_ context.Context, r *http.Request) (any, error) {
	sess, err := s.reg.get(r.PathValue("tenant"))
	if err != nil {
		return nil, err
	}
	return sess.stats(), nil
}

func (s *Server) handleVaultFlush(_ context.Context, r *http.Request) (any, error) {
	sess, err := s.reg.get(r.PathValue("tenant"))
	if err != nil {
		return nil, err
	}
	sess.vaultFlush()
	s.rec.Add("fhed.vault.flushes", 1)
	return map[string]any{"flushed": sess.id, "key_vault": sess.ev.KeyVaultStats()}, nil
}

// chaosRequest arms one fault against this tenant's injector (server
// must run with Chaos enabled). Site names follow the evaluator's hook
// sites, e.g. "ckks.Rotate.c0" or "ckks.keyvault.digitA".
type chaosRequest struct {
	Site  string `json:"site"`
	Kind  string `json:"kind"`
	Limb  int    `json:"limb,omitempty"`
	Coeff int    `json:"coeff,omitempty"`
	Bit   uint   `json:"bit,omitempty"`
	Keep  int    `json:"keep,omitempty"`
	Visit int    `json:"visit,omitempty"`
}

func (s *Server) handleChaos(_ context.Context, r *http.Request) (any, error) {
	if !s.cfg.Chaos {
		return nil, ErrChaosDisabled
	}
	sess, err := s.reg.get(r.PathValue("tenant"))
	if err != nil {
		return nil, err
	}
	var req chaosRequest
	if err := s.decode(r, &req); err != nil {
		return nil, err
	}
	if req.Site == "" || req.Kind == "" {
		return nil, badRequest("chaos: site and kind are required")
	}
	sess.fi.Arm(faultinject.Fault{
		Site: req.Site, Kind: faultinject.Kind(req.Kind),
		Limb: req.Limb, Coeff: req.Coeff, Bit: req.Bit, Keep: req.Keep, Visit: req.Visit,
	})
	s.rec.Add("fhed.chaos.armed", 1)
	s.cfg.Log.Printf("fhed: tenant %q: armed %s@%s", sess.id, req.Kind, req.Site)
	return map[string]string{"armed": req.Kind + "@" + req.Site}, nil
}

// --- data plane -----------------------------------------------------

type encryptRequest struct {
	Values []float64 `json:"values"`
}

func (s *Server) handleEncrypt(ctx context.Context, r *http.Request) (any, error) {
	sess, err := s.reg.get(r.PathValue("tenant"))
	if err != nil {
		return nil, err
	}
	var req encryptRequest
	if err := s.decode(r, &req); err != nil {
		return nil, err
	}
	if len(req.Values) == 0 {
		return nil, badRequest("encrypt: no values")
	}
	if len(req.Values) > sess.params.Slots() {
		return nil, badRequest("encrypt: %d values > %d slots", len(req.Values), sess.params.Slots())
	}
	// |v|·Δ at or past Q/2 would wrap modulo Q and decrypt to garbage.
	limit := 0.5 / sess.params.Scale()
	for _, q := range sess.params.Q() {
		limit *= float64(q)
	}
	vals := make([]complex128, sess.params.Slots())
	for i, v := range req.Values {
		if !(math.Abs(v) < limit) {
			return nil, badRequest("encrypt: values[%d] = %g: |v|·scale must stay below Q/2 (|v| < %.3g)", i, v, limit)
		}
		vals[i] = complex(v, 0)
	}
	var ct *ckks.Ciphertext
	err = sess.run(func() error {
		ct = sess.encSk.Encrypt(sess.enc.Encode(vals))
		return nil
	})
	if err != nil {
		return nil, err
	}
	var meta ctMeta
	return s.encodeReply(ct, &meta, &meta)
}

type decryptRequest struct {
	Ct string `json:"ct"`
	N  int    `json:"n,omitempty"` // slots to return (default 8)
}

func (s *Server) handleDecrypt(ctx context.Context, r *http.Request) (any, error) {
	sess, err := s.reg.get(r.PathValue("tenant"))
	if err != nil {
		return nil, err
	}
	var req decryptRequest
	var ct *ckks.Ciphertext
	if err := s.decode(r, &req, ctField{key: "ct", str: &req.Ct, dst: &ct}); err != nil {
		return nil, err
	}
	n := req.N
	if n <= 0 || n > sess.params.Slots() {
		n = 8
	}
	var vals []float64
	err = sess.run(func() error {
		if err := sess.params.Validate(ct); err != nil {
			return err
		}
		got := sess.enc.Decode(sess.dec.DecryptToPlaintext(ct))
		vals = make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = real(got[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]any{"values": vals, "level": ct.Level}, nil
}

// evalRequest is one FHE op. Repeat chains the op on its own output
// (load shaping and depth tests); Guard runs the canary decrypt-compare
// probe after the op, turning silent key-material corruption into a
// typed 422.
type evalRequest struct {
	Op     string `json:"op"`
	A      string `json:"a"`
	B      string `json:"b,omitempty"`
	By     int    `json:"by,omitempty"` // rotation step / innersum width
	Repeat int    `json:"repeat,omitempty"`
	Guard  bool   `json:"guard,omitempty"`
}

func (s *Server) handleEval(ctx context.Context, r *http.Request) (any, error) {
	sess, err := s.reg.get(r.PathValue("tenant"))
	if err != nil {
		return nil, err
	}
	var req evalRequest
	a, b, err := s.decodeEval(r, &req)
	if err != nil {
		return nil, err
	}
	return s.evalOp(ctx, sess, req, a, b)
}

// handleRotate is sugar for eval{op:rotate}: the hot endpoint of the
// load generator gets its own histogram.
func (s *Server) handleRotate(ctx context.Context, r *http.Request) (any, error) {
	sess, err := s.reg.get(r.PathValue("tenant"))
	if err != nil {
		return nil, err
	}
	var req evalRequest
	a, b, err := s.decodeEval(r, &req)
	if err != nil {
		return nil, err
	}
	req.Op = "rotate"
	return s.evalOp(ctx, sess, req, a, b)
}

// decodeEval decodes an eval body: the request and its operands a and,
// when present, b.
func (s *Server) decodeEval(r *http.Request, req *evalRequest) (a, b *ckks.Ciphertext, err error) {
	err = s.decode(r, req,
		ctField{key: "a", str: &req.A, dst: &a},
		ctField{key: "b", str: &req.B, dst: &b, optional: true})
	return a, b, err
}

// evalOp runs one eval request through the ckks op table. The op is
// looked up before the session lock, so an unknown name is a 400 that
// never waits on the tenant; each repeat step is one Apply.
func (s *Server) evalOp(ctx context.Context, sess *session, req evalRequest, a, b *ckks.Ciphertext) (any, error) {
	repeat := req.Repeat
	if repeat <= 0 {
		repeat = 1
	}
	if repeat > 4096 {
		return nil, badRequest("repeat %d > 4096", repeat)
	}
	if req.Guard && sess.fi == nil {
		return nil, ErrChaosDisabled
	}
	op, err := ckks.LookupOp(req.Op)
	if err != nil {
		return nil, err
	}

	cur := a
	err = sess.run(func() error {
		for i := 0; i < repeat; i++ {
			// One boundary crossing per step: operands validated, result
			// sealed and passed through the fault hooks every time.
			next, err := sess.ev.Apply(ctx, op, cur, b, req.By)
			if err != nil {
				return err
			}
			cur = next
		}
		if req.Guard && op.Name == "rotate" {
			if err := sess.probeRotate(ctx, op, req.By); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.rec.Add("fhed.ops."+req.Op, uint64(repeat))
	meta := evalMeta{Op: req.Op, Repeat: repeat, Guarded: req.Guard}
	return s.encodeReply(cur, &meta.ctMeta, &meta)
}

type bootstrapRequest struct {
	Ct string `json:"ct"`
}

func (s *Server) handleBootstrap(ctx context.Context, r *http.Request) (any, error) {
	sess, err := s.reg.get(r.PathValue("tenant"))
	if err != nil {
		return nil, err
	}
	if sess.btp == nil {
		return nil, ErrBootstrapDisabled
	}
	var req bootstrapRequest
	var ct *ckks.Ciphertext
	if err := s.decode(r, &req, ctField{key: "ct", str: &req.Ct, dst: &ct}); err != nil {
		return nil, err
	}
	var out *ckks.Ciphertext
	err = sess.run(func() (err error) {
		out, err = sess.btp.BootstrapE(ctx, ct)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.rec.Add("fhed.ops.bootstrap", 1)
	var meta ctMeta
	return s.encodeReply(out, &meta, &meta)
}

// --- observability plane --------------------------------------------

func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"status":      map[bool]string{false: "ok", true: "draining"}[s.draining.Load()],
		"uptime_sec":  time.Since(s.started).Seconds(),
		"tenants":     s.reg.count(),
		"queue_depth": s.adm.depth(),
		"in_flight":   s.adm.inFlight(),
		"goroutines":  runtime.NumGoroutine(),
	})
}

func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.rec.WritePrometheus(w)
}
