package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/ckks"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/server"
)

const (
	// fhedFloor: see the floors in library.go.
	fhedFloor = 19.0

	fhedLogN   = 11
	fhedLevels = 4
	// fhedRounds is the number of rotate → mul → add rounds of one program;
	// each mul spends a level, so it must stay under fhedLevels.
	fhedRounds = 3
	// fhedRepeat chains each rotate request on its own output.
	fhedRepeat = 4
	// fhedKeyBudget is half the expanded size of a tenant's ten rotation
	// keys (3 digits × 7 limbs × 2048 coefficients × 8 bytes each), so the
	// rotation steps a program draws cannot all stay resident.
	fhedKeyBudget = 10 * 3 * 7 * 2048 * 8 / 2
)

// fhedTenants are the two tenants: client 0 always uses hot, client 1
// alternates, so hot sees overlapping requests and its session lock is
// contended by construction.
var fhedTenants = []string{"hot", "cold"}

// fhedPlan is the generated input of one program iteration.
type fhedPlan struct {
	tenant string
	values []float64       // slot values in [-0.5, 0.5], so the program stays bounded
	steps  [fhedRounds]int // rotation step of each round, a power of two the tenant has a key for
}

func planFhed(seed uint64, c, it int) fhedPlan {
	src := inputs(seed, "fhed_mixed/program", c, it)
	p := fhedPlan{tenant: fhedTenants[0], values: make([]float64, 1<<(fhedLogN-1))}
	if c == 1 && it%2 == 1 {
		p.tenant = fhedTenants[1]
	}
	for i := range p.values {
		p.values[i] = src.Float64() - 0.5
	}
	for j := range p.steps {
		p.steps[j] = 1 << src.Uint64n(fhedLogN-1)
	}
	return p
}

// fhed is the fhed_mixed instance: an in-process server on a loopback
// port and one HTTP client, with one connection, per closed-loop caller.
type fhed struct {
	seed   uint64
	srv    *server.Server
	served chan error
	rec    *obs.Recorder
	base   string
	conns  []*http.Client
	params *ckks.Parameters
}

func setupFhed(seed uint64) (instance, error) {
	// The same shape the server gives a tenant, for the per-layer probes.
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: fhedLogN, LogQ: logQ(50, 40, fhedLevels), LogP: []int{50, 50}, LogScale: 40,
	})
	if err != nil {
		return nil, err
	}
	f := &fhed{seed: seed, rec: obs.NewRecorder(), served: make(chan error, 1), params: params}
	f.srv, err = server.New(server.Config{Addr: "127.0.0.1:0", Slots: 2, Queue: 8}, f.rec)
	if err != nil {
		return nil, err
	}
	go func() { f.served <- f.srv.Serve() }()
	f.base = "http://" + f.srv.Addr()
	for c := 0; c < min(2, runtime.NumCPU()); c++ {
		f.conns = append(f.conns, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1},
			Timeout:   time.Minute,
		})
	}
	for _, id := range fhedTenants {
		cfg := server.TenantConfig{
			LogN: fhedLogN, Levels: fhedLevels, KeyBudgetBytes: fhedKeyBudget,
			// A tenant's keys are the same on every seed: the precision of a
			// program depends on the key by almost 2 bits, on the inputs hardly.
			Seed: "madbench-" + id,
		}
		var created struct {
			Slots int `json:"slots"`
		}
		if err := f.call(f.conns[0], http.MethodPut, "/v1/tenants/"+id, cfg, &created); err != nil {
			f.close()
			return nil, err
		}
		if created.Slots != params.Slots() {
			f.close()
			return nil, fmt.Errorf("tenant %s has %d slots, want %d", id, created.Slots, params.Slots())
		}
	}
	return f, nil
}

// call is one control-plane exchange outside the timed ops.
func (f *fhed) call(hc *http.Client, method, path string, body, into any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(method, f.base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, into)
}

func (f *fhed) clients() int { return len(f.conns) }

// Wire types of the fhed data plane (docs/SERVER.md).
type (
	encryptReq struct {
		Values []float64 `json:"values"`
	}
	evalReq struct {
		Op     string `json:"op,omitempty"`
		A      string `json:"a"`
		B      string `json:"b,omitempty"`
		By     int    `json:"by,omitempty"`
		Repeat int    `json:"repeat,omitempty"`
	}
	ctResp struct {
		Ct     string `json:"ct"`
		Level  int    `json:"level"`
		Bytes  int    `json:"bytes"`
		Op     string `json:"op"`
		Repeat int    `json:"repeat"`
	}
	decryptReq struct {
		Ct string `json:"ct"`
		N  int    `json:"n"`
	}
	decryptResp struct {
		Values []float64 `json:"values"`
	}
)

// request is one timed op: encode the body, one HTTP exchange, decode and
// check the reply. The sample is failed unless the status is 200 and
// check accepts the decoded body.
func (f *fhed) request(c int, tr *tracer, op int, kind, path string, body, into any, check func() error) sample {
	s := sample{kind: kind}
	start := time.Now()
	root := tr.start(op, 0, "request")
	err := f.exchange(c, tr, op, root, path, body, into, check, &s)
	tr.end(root)
	s.latency = time.Since(start)
	if err != nil {
		fmt.Printf("request %d (%s) failed: %v\n", op, kind, err)
		s.failed = true
	}
	return s
}

func (f *fhed) exchange(c int, tr *tracer, op, root int, path string, body, into any, check func() error, s *sample) error {
	var data, raw []byte
	var resp *http.Response
	var err error
	tr.do(op, root, "client.encode", func() { data, err = json.Marshal(body) })
	if err != nil {
		return err
	}
	s.reqBytes = len(data)
	tr.do(op, root, "client.http", func() {
		resp, err = f.conns[c].Post(f.base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			return
		}
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	})
	if err != nil {
		return err
	}
	s.respBytes = len(raw)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	tr.do(op, root, "client.decode", func() {
		if err = json.Unmarshal(raw, into); err == nil {
			err = check()
		}
	})
	return err
}

// step runs one program: encrypt → 3 × [rotate(repeat 4) → mul → add] →
// decrypt, each request's ciphertext feeding the next, against a
// plaintext shadow. It stops at the first failed request.
//
// The issue's program ended each round with "eval rescale"; the server's
// mul already rescales, so a second rescale would destroy the scale. The
// round ends with an add instead: two ciphertexts in, almost no kernel
// work, which is the codec-heavy request the workload is here for.
func (f *fhed) step(c, it int, tr *tracer) (out []sample) {
	plan := planFhed(f.seed, c, it)
	prefix := "/v1/tenants/" + plan.tenant
	op := (c*1_000_000 + it) * 16
	shadow := append([]float64(nil), plan.values...)
	slots := len(shadow)
	level := fhedLevels

	var ct ctResp
	checkCt := func(wantOp string, repeat int) func() error {
		return func() error {
			if ct.Ct == "" || ct.Bytes <= 0 || ct.Level != level || ct.Op != wantOp || ct.Repeat != repeat {
				return fmt.Errorf("reply op=%q repeat=%d level=%d bytes=%d, want op=%q repeat=%d level=%d",
					ct.Op, ct.Repeat, ct.Level, ct.Bytes, wantOp, repeat, level)
			}
			return nil
		}
	}
	send := func(kind, path string, body, into any, check func() error) bool {
		s := f.request(c, tr, op+len(out), kind, prefix+path, body, into, check)
		out = append(out, s)
		return !s.failed
	}

	if !send("encrypt", "/encrypt", encryptReq{Values: plan.values}, &ct, checkCt("", 0)) {
		return out
	}
	for _, by := range plan.steps {
		if !send("rotate", "/rotate", evalReq{A: ct.Ct, By: by, Repeat: fhedRepeat}, &ct, checkCt("rotate", fhedRepeat)) {
			return out
		}
		rotated := make([]float64, slots)
		for i := range rotated {
			rotated[i] = shadow[(i+by*fhedRepeat)%slots]
		}
		level--
		if !send("mul", "/eval", evalReq{Op: "mul", A: ct.Ct, B: ct.Ct}, &ct, checkCt("mul", 1)) {
			return out
		}
		if !send("add", "/eval", evalReq{Op: "add", A: ct.Ct, B: ct.Ct}, &ct, checkCt("add", 1)) {
			return out
		}
		for i, v := range rotated {
			shadow[i] = 2 * v * v
		}
	}
	var dec decryptResp
	send("decrypt", "/decrypt", decryptReq{Ct: ct.Ct, N: slots}, &dec, func() error {
		if len(dec.Values) != slots {
			return fmt.Errorf("decrypt returned %d values, want %d", len(dec.Values), slots)
		}
		return nil
	})
	last := &out[len(out)-1]
	if last.failed {
		return out
	}
	want, got := make([]complex128, slots), make([]complex128, slots)
	for i := range want {
		want[i], got[i] = complex(shadow[i], 0), complex(dec.Values[i], 0)
	}
	last.prec, last.checked = ckks.Precision(want, got), true
	if last.prec.MinPrecisionBits < fhedFloor {
		fmt.Printf("request %d (decrypt) failed: %v under the floor of %.1f bits\n", op+len(out)-1, last.prec, fhedFloor)
		last.failed = true
	}
	return out
}

func (f *fhed) observe(bool) *obs.Recorder { return f.rec }

func (f *fhed) vault() (ckks.KeyVaultStats, error) {
	var sum ckks.KeyVaultStats
	for _, id := range fhedTenants {
		var st struct {
			KeyVault ckks.KeyVaultStats `json:"key_vault"`
		}
		if err := f.call(f.conns[0], http.MethodGet, "/v1/tenants/"+id+"/stats", nil, &st); err != nil {
			return sum, err
		}
		sum.Hits += st.KeyVault.Hits
		sum.Misses += st.KeyVault.Misses
		sum.Expansions += st.KeyVault.Expansions
		sum.Evictions += st.KeyVault.Evictions
		sum.ResidentBytes += st.KeyVault.ResidentBytes
	}
	return sum, nil
}

func (f *fhed) layers() layerInfo {
	return layerInfo{params: f.params, unspanned: func(m *ledger.Model) obs.OpCost {
		// The server's evaluators cannot be handed a cost model from
		// outside, so the whole program is predicted here: per round, four
		// rotations and one Mult at the round's level (add is not modelled).
		var sum obs.OpCost
		for j := 0; j < fhedRounds; j++ {
			rot, _ := m.PredictOp("Rotate", fhedLevels+1-j, 0)
			mul, _ := m.PredictOp("Mult", fhedLevels+1-j, 0)
			sum.Bytes += fhedRepeat*rot.Bytes + mul.Bytes
			sum.Ops += fhedRepeat*rot.Ops + mul.Ops
			sum.NTT += fhedRepeat*rot.NTT + mul.NTT
		}
		return sum
	}}
}

func (f *fhed) close() error {
	err := f.srv.Shutdown()
	if serr := <-f.served; err == nil {
		err = serr
	}
	for _, hc := range f.conns {
		hc.CloseIdleConnections()
	}
	return err
}
