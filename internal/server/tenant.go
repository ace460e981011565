package server

import (
	"context"
	"fmt"
	"math/cmplx"
	"sort"
	"sync"

	"repro/internal/bootstrap"
	"repro/internal/ckks"
	"repro/internal/faultinject"
	"repro/internal/fherr"
	"repro/internal/obs"
	"repro/internal/prng"
)

// TenantConfig is the body of PUT /v1/tenants/{id}: the parameter set,
// key material and resource bounds for one tenant. Zero values pick the
// documented defaults, so `{}` is a valid config.
type TenantConfig struct {
	// LogN is the ring degree exponent (default 11; bootstrap-enabled
	// tenants are pinned to the bootstrap parameter shape instead).
	LogN int `json:"log_n,omitempty"`
	// Levels is the usable multiplication depth (default 4).
	Levels int `json:"levels,omitempty"`
	// Rots are the rotation steps to generate Galois keys for, on top
	// of the power-of-two InnerSum ladder that is always present.
	Rots []int `json:"rots,omitempty"`
	// KeyBudgetBytes bounds the tenant evaluator's resident switching-key
	// material (0 = unlimited). Keys are stored seed-compressed and
	// materialized on demand, so a small budget trades per-op expansion
	// compute for memory — it never breaks correctness.
	KeyBudgetBytes int64 `json:"key_budget_bytes,omitempty"`
	// Workers is the per-op parallelism for this tenant's evaluator
	// (default 1; the admission layer is the real concurrency governor).
	Workers int `json:"workers,omitempty"`
	// Bootstrap provisions bootstrapping keys (sparse secret, deep
	// modulus chain). Expensive at create time; off by default.
	Bootstrap bool `json:"bootstrap,omitempty"`
	// Seed, when non-empty, derives the tenant's PRNG deterministically
	// (tests and reproducible chaos runs); empty uses a random seed.
	Seed string `json:"seed,omitempty"`
}

// session is one tenant's full FHE context. All evaluator state is
// serialized by mu: the ckks.Evaluator is not goroutine-safe, so the lock
// covers a request's evaluator calls, and only those — the codec decodes
// a request's ciphertexts before the lock and encodes the reply, which
// belongs to the request, after it. The request deadline is not
// session state — each op binds it through ckks.Evaluator.Do. Concurrency
// across tenants comes from distinct sessions; concurrency within a
// tenant is serialized (matching the single logical key-state of a
// tenant).
type session struct {
	mu     sync.Mutex
	id     string
	cfg    TenantConfig
	params *ckks.Parameters
	enc    *ckks.Encoder
	encSk  *ckks.Encryptor
	dec    *ckks.Decryptor
	ev     *ckks.Evaluator
	btp    *bootstrap.Bootstrapper // nil unless cfg.Bootstrap
	fi     *faultinject.Injector   // non-nil only on chaos-enabled servers
	rec    *obs.Recorder

	// canary is a known plaintext whose encryption rides along with the
	// session. Guarded requests re-run their rotation on the canary and
	// decrypt-compare against the expected slot permutation: corrupted
	// cached key material (which checksums cannot see — the ciphertext
	// is well-formed, just wrong) turns into a typed ErrPrecisionLoss
	// instead of silently wrong tenant data.
	canary   []complex128
	canaryCt *ckks.Ciphertext
}

// newSession provisions a tenant: parameters, secret key, eval keys
// (seed-compressed, budget-bounded), and the canary ciphertext.
func newSession(id string, cfg TenantConfig, chaos bool, rec *obs.Recorder) (*session, error) {
	if cfg.LogN == 0 {
		cfg.LogN = 11
	}
	if cfg.Levels == 0 {
		cfg.Levels = 4
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.LogN < 4 || cfg.LogN > 15 {
		return nil, badRequest("log_n %d out of range [4,15]", cfg.LogN)
	}
	if cfg.Levels < 1 || cfg.Levels > 20 {
		return nil, badRequest("levels %d out of range [1,20]", cfg.Levels)
	}

	var lit ckks.ParametersLiteral
	if cfg.Bootstrap {
		// Bootstrapping needs the deep chain and the sparse secret; the
		// tenant's requested shape is overridden to the known-good one.
		logQ := []int{48}
		for i := 0; i < 16; i++ {
			logQ = append(logQ, 40)
		}
		lit = ckks.ParametersLiteral{LogN: 10, LogQ: logQ, LogP: []int{50, 50, 50}, LogScale: 40}
	} else {
		logQ := []int{50}
		for i := 0; i < cfg.Levels; i++ {
			logQ = append(logQ, 40)
		}
		lit = ckks.ParametersLiteral{LogN: cfg.LogN, LogQ: logQ, LogP: []int{50, 50}, LogScale: 40}
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, badRequest("tenant %s: bad parameters: %v", id, err)
	}

	var src *prng.Source
	if cfg.Seed != "" {
		var seed [prng.SeedSize]byte
		copy(seed[:], cfg.Seed)
		src = prng.NewSource(seed)
	} else {
		src, _ = prng.NewRandomSource()
	}

	kg := ckks.NewKeyGenerator(params, src)
	var sk *ckks.SecretKey
	if cfg.Bootstrap {
		sk = kg.GenSecretKeySparse(16)
	} else {
		sk = kg.GenSecretKey()
	}

	// Rotation set: the tenant's requested steps plus the InnerSum
	// ladder (the key generator keys each Galois element once). Sorted, so
	// the generator consumes its PRNG in one order and a Seed reproduces
	// the tenant's keys bit for bit. Keys are generated compressed so the
	// evaluator's key vault (bounded by KeyBudgetBytes) demand-materializes
	// the expanded halves.
	steps := ckks.InnerSumRotations(params.Slots())
	for _, k := range cfg.Rots {
		if k != 0 {
			steps = append(steps, k)
		}
	}
	sort.Ints(steps)
	rlk := kg.GenRelinearizationKey(sk, true)
	rlk.DropExpanded()
	gks := kg.GenGaloisKeys(steps, sk)

	ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Rlk: rlk, Galois: gks},
		ckks.WithWorkers(cfg.Workers), ckks.WithKeyBudget(cfg.KeyBudgetBytes), ckks.WithIntegrity())
	ev.SetRecorder(rec)

	s := &session{
		id:     id,
		cfg:    cfg,
		params: params,
		enc:    ckks.NewEncoder(params),
		encSk:  ckks.NewSecretKeyEncryptor(params, sk, src),
		dec:    ckks.NewDecryptor(params, sk),
		ev:     ev,
		rec:    rec,
	}
	if chaos {
		s.fi = faultinject.New()
		ev.SetFaultInjector(s.fi)
	}
	if cfg.Bootstrap {
		btp, err := bootstrap.NewBootstrapper(params, bootstrap.DefaultParameters(), sk, src, true)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: bootstrapper: %w", id, err)
		}
		btp.Evaluator().SetRecorder(rec)
		btp.Evaluator().SetWorkers(cfg.Workers)
		if cfg.KeyBudgetBytes > 0 {
			btp.Evaluator().SetKeyBudget(cfg.KeyBudgetBytes)
		}
		if s.fi != nil {
			btp.Evaluator().SetFaultInjector(s.fi)
		}
		s.btp = btp
	}

	// Canary: a fixed, cheap-to-verify ramp.
	s.canary = make([]complex128, params.Slots())
	for i := range s.canary {
		s.canary[i] = complex(float64(i%17)*0.125-1, 0)
	}
	s.canaryCt = s.encSk.Encrypt(s.enc.Encode(s.canary))
	return s, nil
}

// run executes f with the session locked; the span fhed.session.wait
// times the wait for the lock.
func (s *session) run(f func() error) error {
	sp := s.rec.StartLinked("fhed.session.wait")
	s.mu.Lock()
	sp.End()
	defer s.mu.Unlock()
	return f()
}

// probeRotate is the guarded-eval canary check: apply the rotate op the
// user's request just ran to the canary by step, with the same evaluator
// (and thus the same cached switching-key digits), decrypt, and compare
// against the expected slot permutation. Key-material corruption
// produces a huge error (the inner product lands far from the ring
// element the secret key expects), so the 0.5 threshold cleanly
// separates it from CKKS approximation noise (~1e-4 at these
// parameters). Must be called with s.mu held (i.e. from inside run).
func (s *session) probeRotate(ctx context.Context, rotate ckks.Op, step int) error {
	out, err := s.ev.Apply(ctx, rotate, s.canaryCt, nil, step)
	if err != nil {
		return err
	}
	got := s.enc.Decode(s.dec.DecryptToPlaintext(out))
	n := len(s.canary)
	worst := 0.0
	for i := range s.canary {
		want := s.canary[((i+step)%n+n)%n]
		if d := cmplx.Abs(got[i] - want); d > worst {
			worst = d
		}
	}
	if worst > 0.5 {
		return fherr.Errorf(fherr.ErrPrecisionLoss,
			"server: tenant %s: canary probe failed after rotate(%d): max slot error %.3g — suspected corrupted key material (flush the key vault)",
			s.id, step, worst)
	}
	return nil
}

// vaultFlush drops the evaluators' cached switching-key digits, forcing
// rematerialization from seeds — the recovery path once a canary probe
// reports corruption.
func (s *session) vaultFlush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ev.FlushKeyVault()
	if s.btp != nil {
		s.btp.Evaluator().FlushKeyVault()
	}
}

// tenantStats is the body of GET /v1/tenants/{id}/stats.
type tenantStats struct {
	ID        string              `json:"id"`
	LogN      int                 `json:"log_n"`
	Levels    int                 `json:"levels"`
	Slots     int                 `json:"slots"`
	Bootstrap bool                `json:"bootstrap"`
	KeyVault  ckks.KeyVaultStats  `json:"key_vault"`
	Faults    []faultinject.Event `json:"faults,omitempty"`
}

func (s *session) stats() tenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := tenantStats{
		ID:        s.id,
		LogN:      s.params.LogN(),
		Levels:    s.params.MaxLevel(),
		Slots:     s.params.Slots(),
		Bootstrap: s.btp != nil,
		KeyVault:  s.ev.KeyVaultStats(),
	}
	if s.fi != nil {
		st.Faults = s.fi.Events()
	}
	return st
}
