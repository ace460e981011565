package bootstrap

import (
	"fmt"
	"math"

	"repro/internal/ckks"
	"repro/internal/mathutil"
	"repro/internal/prng"
)

// Parameters configures the bootstrapping pipeline (Algorithm 4).
type Parameters struct {
	// K bounds the modular-reduction range: the integer overflow k in the
	// raised plaintext Δ·m + q_0·k must satisfy |k| < K. Sparse secrets
	// keep K small; K must exceed (1 + HammingWeight)/2 to be safe.
	K int
	// SineDegree is the Chebyshev degree approximating the scaled cosine.
	SineDegree int
	// DoubleAngle is the number r of double-angle refinements; the
	// Chebyshev polynomial approximates cos(2π(Kx − ¼)/2^r).
	DoubleAngle int
	// CtSIter and StCIter are the paper's fftIter: the number of
	// PtMatVecMult stages in CoeffToSlot and SlotToCoeff.
	CtSIter int
	StCIter int
}

// DefaultParameters returns a configuration suitable for the test-scale
// rings used in this repository (N = 2^10 … 2^12, sparse secrets h ≤ 16).
func DefaultParameters() Parameters {
	return Parameters{
		K:           12,
		SineDegree:  31,
		DoubleAngle: 3,
		CtSIter:     3,
		StCIter:     2,
	}
}

// Bootstrapper refreshes exhausted ciphertexts back to a computable level.
type Bootstrapper struct {
	params  *ckks.Parameters
	bparams Parameters
	enc     *ckks.Encoder
	ev      *ckks.Evaluator

	cts *homomorphicDFT
	stc *homomorphicDFT

	sineCoeffs []float64

	// guard, when non-nil, arms BootstrapE's decrypt-compare precision
	// probe (see ArmPrecisionGuard in checked.go).
	guard *precisionGuard
}

// NewBootstrapper builds the DFT matrices and the evaluation keys
// (relinearization, conjugation, and every DFT rotation) for the given
// secret. The secret should be sparse (see KeyGenerator.GenSecretKeySparse)
// so the Parameters.K range bound holds.
func NewBootstrapper(params *ckks.Parameters, bparams Parameters, sk *ckks.SecretKey, src *prng.Source, compressKeys bool) (*Bootstrapper, error) {
	L := params.MaxLevel()

	// Level budget, from the schedule EvalMod executes: CoeffToSlot starts
	// at L, the sine polynomial takes its plan's depth and each double-angle
	// step one more, and the last SlotToCoeff group must still have a level
	// to rescale into. Checked before anything is encoded or keyed.
	_, sineDepth := mathutil.NewPSPlan(bparams.SineDegree).Cost()
	stcLevel := L - bparams.CtSIter - sineDepth - bparams.DoubleAngle
	if end := stcLevel - bparams.StCIter; end < 0 {
		return nil, fmt.Errorf("bootstrap: parameter chain too short (%d Q-limbs; SlotToCoeff would end at level %d)", L+1, end)
	}

	enc := ckks.NewEncoder(params)
	q0 := float64(params.Q()[0])
	delta := params.Scale()
	n := float64(params.Slots())
	kq0 := float64(bparams.K) * q0

	// CoeffToSlot: fold 1/(2n) (iFFT normalization + conjugate split) and
	// Δ/(K·q0) (EvalMod input normalization) into the matrices.
	ctsFold := (1 / (2 * n)) * (delta / kq0)
	cts := buildDFT(enc, params, bparams.CtSIter, L, true, ctsFold)

	// SlotToCoeff: fold q0/(2π·Δ) (EvalMod output denormalization).
	stcFold := q0 / (2 * math.Pi * delta)
	stc := buildDFT(enc, params, bparams.StCIter, stcLevel, false, stcFold)

	// Keys: relinearization + conjugation + all DFT rotations. With
	// compressKeys the whole set is dropped to seed-only form — dozens of
	// Galois keys keep only their b halves plus 32-byte seeds, and the
	// evaluator's key vault rematerializes the uniform halves on demand
	// within the SetKeyBudget bound, so bootstrap's key working set is a
	// knob instead of a fixed resident-everything cost.
	kg := ckks.NewKeyGenerator(params, src)
	rlk := kg.GenRelinearizationKey(sk, compressKeys)
	steps := append(cts.rotationSteps(), stc.rotationSteps()...)
	gks := kg.GenRotationKeys(steps, sk, compressKeys)
	cj := kg.GenConjugationKey(sk, compressKeys)
	gks[cj.GaloisEl] = cj
	if compressKeys {
		rlk.DropExpanded()
		for _, gk := range gks {
			gk.DropExpanded()
		}
	}

	ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Rlk: rlk, Galois: gks})

	// Chebyshev approximation of cos(2π(K·u − ¼)/2^r) on [-1, 1]; after r
	// double-angle steps this becomes sin(2πK·u) = sin(2π·t/q0).
	r := float64(int(1) << bparams.DoubleAngle)
	kf := float64(bparams.K)
	sine := ChebyshevCoeffs(func(u float64) float64 {
		return math.Cos(2 * math.Pi * (kf*u - 0.25) / r)
	}, bparams.SineDegree)

	return &Bootstrapper{
		params:  params,
		bparams: bparams,
		enc:     enc,
		ev:      ev,
		cts:     cts,
		stc:     stc,

		sineCoeffs: sine,
	}, nil
}

// Evaluator exposes the bootstrapper's evaluator. It holds every rotation
// key, and it is where the bootstrapper is configured: SetWorkers and
// SetKeyBudget (only meaningful with compressKeys=true) leave the
// refreshed ciphertexts bit-identical; with SetRecorder, Bootstrap emits
// one span per phase (bootstrap.ModRaise, bootstrap.CoeffToSlot,
// bootstrap.EvalMod, bootstrap.SlotToCoeff), each carrying the ckks.*
// counter deltas accumulated inside the phase; with SetTracer it drops a
// stream mark at every phase boundary (the four phases, then
// bootstrap.Done) so the trace can be replayed per phase; with
// SetFaultInjector the phase sites (the four phase names suffixed
// .c0/.c1) become active next to the ckks hook sites.
func (b *Bootstrapper) Evaluator() *ckks.Evaluator { return b.ev }

// modRaise reinterprets a level-0 ciphertext in the full modulus chain:
// each coefficient v ∈ [0, q_0) is lifted centered to every limb. The
// underlying plaintext becomes Δ·m + q_0·k for a small integer polynomial
// k — the quantity EvalMod later removes.
func (b *Bootstrapper) modRaise(ct *ckks.Ciphertext) *ckks.Ciphertext {
	p := b.params
	rQ0 := p.RingQ().AtLevel(0)
	rQL := p.RingQ()
	L := p.MaxLevel()
	q0 := p.Q()[0]
	half := q0 >> 1

	out := &ckks.Ciphertext{C0: rQL.NewPoly(), C1: rQL.NewPoly(), Scale: ct.Scale, Level: L}
	// Lift both halves.
	for h := 0; h < 2; h++ {
		inP, outP := ct.C0, out.C0
		if h == 1 {
			inP, outP = ct.C1, out.C1
		}
		tmp := inP.CopyNew()
		rQ0.INTTPoly(tmp)
		workers := b.ev.Workers()
		// Under BootstrapE the evaluator is bound to the request context,
		// so a deadline stops the coefficient lift mid-raise.
		b.ev.FanOutChunked(p.N(), workers, func(_, start, end int) {
			for j := start; j < end; j++ {
				v := tmp.Coeffs[0][j]
				for i := 0; i <= L; i++ {
					qi := p.Q()[i]
					if v > half {
						// negative representative: v − q0
						outP.Coeffs[i][j] = (qi - (q0-v)%qi) % qi
					} else {
						outP.Coeffs[i][j] = v % qi
					}
				}
			}
		})
		outP.IsNTT = false
		rQL.NTTPolyParallel(outP, workers)
	}
	return out
}

// evalMod approximately reduces every slot value u = t/(K·q0) to
// sin(2πK·u) ≈ (2π/q0)·(t mod q0): the Chebyshev cosine followed by
// DoubleAngle applications of cos(2θ) = 2cos²θ − 1.
func (b *Bootstrapper) evalMod(ct *ckks.Ciphertext) *ckks.Ciphertext {
	ev := b.ev
	out := ev.EvalPolynomial(ct, ckks.Chebyshev, b.sineCoeffs)
	for i := 0; i < b.bparams.DoubleAngle; i++ {
		out = ev.DoubleAngle(out)
	}
	return out
}

// Bootstrap refreshes a level-0 (or low-level) ciphertext to a high level
// encrypting the same message: ModRaise, CoeffToSlot, EvalMod on the real
// and imaginary coefficient halves, SlotToCoeff (Algorithm 4).
func (b *Bootstrapper) Bootstrap(ct *ckks.Ciphertext) *ckks.Ciphertext {
	ev := b.ev
	rec := ev.Recorder()
	root := rec.StartOp("bootstrap.Bootstrap")
	defer root.End()
	if ct.Level > 0 {
		ct = ev.DropLevel(ct, 0)
	}

	// Each phase is an op span stamped, as the evaluator's op spans are,
	// with its memtrace window [trace.begin, trace.end).
	tr := ev.Tracer()
	phase := func(name string, body func()) {
		sp := rec.StartOp(name)
		if tr != nil {
			sp.SetAttr("trace.begin", float64(tr.Len()))
		}
		body()
		if tr != nil {
			sp.SetAttr("trace.end", float64(tr.Len()))
		}
		sp.End()
	}
	fi := ev.FaultInjector()
	var raised, ctReal, ctImag, out *ckks.Ciphertext
	phase("bootstrap.ModRaise", func() { raised = b.modRaise(ct) })
	fi.Poly("bootstrap.ModRaise.c0", raised.C0)
	fi.Poly("bootstrap.ModRaise.c1", raised.C1)

	// CoeffToSlot: slots now hold (t_j + i·t_{j+n})/(2n·…) in bit-reversed
	// order, with the EvalMod normalization folded in.
	phase("bootstrap.CoeffToSlot", func() {
		w := b.cts.apply(ev, raised)
		// Conjugate split into the two real coefficient halves.
		wc := ev.Conjugate(w)
		ctReal = ev.Add(w, wc)
		ctImag = ev.MulByMinusI(ev.Sub(w, wc))
	})
	fi.Poly("bootstrap.CoeffToSlot.c0", ctReal.C0)
	fi.Poly("bootstrap.CoeffToSlot.c1", ctReal.C1)

	// Approximate modular reduction on each half.
	phase("bootstrap.EvalMod", func() {
		ctReal = b.evalMod(ctReal)
		ctImag = b.evalMod(ctImag)
	})
	fi.Poly("bootstrap.EvalMod.c0", ctReal.C0)
	fi.Poly("bootstrap.EvalMod.c1", ctReal.C1)

	// Recombine and return to the coefficient domain.
	phase("bootstrap.SlotToCoeff", func() {
		out = b.stc.apply(ev, ev.Add(ctReal, ev.MulByI(ctImag)))
	})
	fi.Poly("bootstrap.SlotToCoeff.c0", out.C0)
	fi.Poly("bootstrap.SlotToCoeff.c1", out.C1)

	// The slots now read the original message directly: every
	// normalization constant was folded into the DFT matrices, so the
	// tracked scale is already consistent with the slot values.
	return out
}
