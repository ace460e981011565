package bootstrap

import (
	"fmt"
	"math"

	"repro/internal/ckks"
	"repro/internal/mathutil"
	"repro/internal/prng"
	"repro/internal/ring"
)

// Parameters configures the bootstrapping pipeline (Algorithm 4): its
// plan's shape and the range bound K.
type Parameters struct {
	mathutil.BootShape
	// K bounds the modular-reduction range: the integer overflow k in the
	// raised plaintext Δ·m + q_0·k must satisfy |k| < K. Sparse secrets
	// keep K small; K must exceed (1 + HammingWeight)/2 to be safe.
	K int
}

// DefaultParameters returns a configuration suitable for the test-scale
// rings used in this repository (N = 2^10 … 2^12, sparse secrets h ≤ 16).
func DefaultParameters() Parameters {
	return Parameters{K: 12, BootShape: mathutil.BootShape{CtSIter: 3, StCIter: 2, SineDegree: 31, DoubleAngle: 3}}
}

// Bootstrapper refreshes exhausted ciphertexts back to a computable level.
type Bootstrapper struct {
	params  *ckks.Parameters
	bparams Parameters
	plan    mathutil.BootPlan
	enc     *ckks.Encoder
	ev      *ckks.Evaluator

	cts, stc homomorphicDFT

	sineCoeffs []float64

	// guard, when non-nil, arms BootstrapE's decrypt-compare precision
	// probe (see ArmPrecisionGuard in checked.go).
	guard *precisionGuard
}

// NewBootstrapper builds the DFT matrices and the evaluation keys
// (relinearization, conjugation, and every DFT rotation) for the given
// secret. The secret should be sparse (see KeyGenerator.GenSecretKeySparse)
// so the Parameters.K range bound holds. opts configure the
// bootstrapper's evaluator: workers, a key budget (meaningful only with
// compressKeys) or integrity sealing; refreshed ciphertexts are
// bit-identical under every worker count and budget.
func NewBootstrapper(params *ckks.Parameters, bparams Parameters, sk *ckks.SecretKey, src *prng.Source, compressKeys bool, opts ...ckks.EvaluatorOption) (*Bootstrapper, error) {
	// Level budget, from the plan: the last SlotToCoeff group must still
	// rescale into a level. Checked before anything is encoded or keyed.
	L := params.MaxLevel()
	plan := mathutil.NewBootPlan(params.LogN()-1, L, bparams.BootShape)
	if plan.LevelAfter < 0 {
		return nil, fmt.Errorf("bootstrap: parameter chain too short (%d Q-limbs; SlotToCoeff would end at level %d)", L+1, plan.LevelAfter)
	}

	enc := ckks.NewEncoder(params)
	q0 := float64(params.Q()[0])
	delta := params.Scale()
	n := float64(params.Slots())
	kq0 := float64(bparams.K) * q0

	// CoeffToSlot: fold 1/(2n) (iFFT normalization + conjugate split) and
	// Δ/(K·q0) (EvalMod input normalization) into the matrices.
	ctsFold := (1 / (2 * n)) * (delta / kq0)
	cts := buildDFT(enc, params, plan.CoeffToSlot, true, ctsFold)

	// SlotToCoeff: fold q0/(2π·Δ) (EvalMod output denormalization).
	stcFold := q0 / (2 * math.Pi * delta)
	stc := buildDFT(enc, params, plan.SlotToCoeff, false, stcFold)

	// Keys: relinearization + conjugation + all DFT rotations. With
	// compressKeys the whole set is dropped to seed-only form — dozens of
	// Galois keys keep only their b halves plus 32-byte seeds, and the
	// evaluator's key vault rematerializes the uniform halves on demand
	// within the WithKeyBudget bound, so bootstrap's key working set is a
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

	ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Rlk: rlk, Galois: gks}, opts...)

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
		plan:    plan,
		enc:     enc,
		ev:      ev,
		cts:     cts,
		stc:     stc,

		sineCoeffs: sine,
	}, nil
}

// Evaluator exposes the bootstrapper's evaluator. It holds every rotation
// key, and it is where the bootstrapper is instrumented and retuned:
// SetWorkers leaves the refreshed ciphertexts bit-identical; with
// SetRecorder, Bootstrap emits
// one span per phase (bootstrap.ModRaise, bootstrap.CoeffToSlot,
// bootstrap.EvalMod, bootstrap.SlotToCoeff), each carrying the ckks.*
// counter deltas accumulated inside the phase; with SetTracer it drops a
// stream mark at every phase boundary (the four phases, then
// bootstrap.Done) so the trace can be replayed per phase; with
// SetFaultInjector the phase sites (the four phase names suffixed
// .c0/.c1) become active next to the ckks hook sites.
func (b *Bootstrapper) Evaluator() *ckks.Evaluator { return b.ev }

// Plan returns the schedule the bootstrapper was built from and runs.
func (b *Bootstrapper) Plan() mathutil.BootPlan { return b.plan }

// modRaise reinterprets a level-0 ciphertext in the full modulus chain:
// each coefficient v ∈ [0, q_0) is lifted centered to every limb. The
// underlying plaintext becomes Δ·m + q_0·k for a small integer polynomial
// k — the quantity EvalMod later removes. The output is drawn from the
// evaluator's pools; the caller releases it.
func (b *Bootstrapper) modRaise(ct *ckks.Ciphertext) *ckks.Ciphertext {
	p := b.params
	rQL := p.RingQ()
	s0 := rQL.SubRings[0]
	L := p.MaxLevel()
	q0 := p.Q()[0]
	half := q0 >> 1

	out := &ckks.Ciphertext{C0: rQL.GetPoly(), C1: rQL.GetPoly(), Scale: ct.Scale, Level: L}
	scratch := rQL.AtLevel(0).GetScratch()
	defer rQL.AtLevel(0).PutScratch(scratch)
	lo := scratch.Coeffs[0]
	// Lift both halves. Every v ∈ [0, q_0) lifts to itself mod q_0, so
	// limb 0 of the output is the input limb, already in NTT form: it is
	// copied, and only its coefficient form — an iNTT into a scratch row —
	// is lifted to the other limbs, which alone are transformed forward.
	for h := 0; h < 2; h++ {
		inP, outP := ct.C0, out.C0
		if h == 1 {
			inP, outP = ct.C1, out.C1
		}
		s0.INTTTo(lo, inP.Coeffs[0])
		b.ev.Tracer().Read(inP.Coeffs[0])
		copy(outP.Coeffs[0], inP.Coeffs[0])
		b.ev.Tracer().Write(outP.Coeffs[0])
		workers := b.ev.Workers()
		// Under BootstrapE the evaluator is bound to the request context,
		// so a deadline stops the coefficient lift mid-raise.
		b.ev.FanOutChunked(p.N(), workers, func(_, start, end int) {
			for j := start; j < end; j++ {
				v := lo[j]
				for i := 1; i <= L; i++ {
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
		// The lift is no ring kernel: record its limb traffic here.
		b.ev.Tracer().Read(lo)
		for _, c := range outP.Coeffs[1:] {
			b.ev.Tracer().Write(c)
		}
		ring.Parallel(L, workers, func(i int) { rQL.SubRings[i+1].NTT(outP.Coeffs[i+1]) })
		outP.IsNTT = true
	}
	return out
}

// evalMod approximately reduces every slot value u = t/(K·q0) of both
// coefficient halves to sin(2πK·u) ≈ (2π/q0)·(t mod q0): the Chebyshev
// cosine followed by DoubleAngle applications of cos(2θ) = 2cos²θ − 1.
// The halves go through the one polynomial executor together and through
// each double-angle step as one batched Mult, so every product of a level
// shares its relinearization-key pass with the other half's.
func (b *Bootstrapper) evalMod(ctReal, ctImag *ckks.Ciphertext) (*ckks.Ciphertext, *ckks.Ciphertext) {
	ev := b.ev
	out := ev.EvalPolynomial(ckks.Chebyshev, b.sineCoeffs, ctReal, ctImag)
	for i := 0; i < b.bparams.DoubleAngle; i++ {
		in := out
		out = ev.DoubleAngle(in...)
		ev.Release(in...)
	}
	return out[0], out[1]
}

// Bootstrap refreshes a level-0 (or low-level) ciphertext to a high level
// encrypting the same message: ModRaise, CoeffToSlot, EvalMod on the real
// and imaginary coefficient halves, SlotToCoeff (Algorithm 4). ct is only
// read. Every intermediate goes back to the evaluator's pools once its
// last reader has run, so a steady-state bootstrap allocates only the
// ciphertext it returns.
func (b *Bootstrapper) Bootstrap(ct *ckks.Ciphertext) *ckks.Ciphertext {
	ev := b.ev
	rec := ev.Recorder()
	root := rec.StartOp("bootstrap.Bootstrap")
	defer root.End()
	var dropped *ckks.Ciphertext
	if ct.Level > 0 {
		dropped = ev.DropLevel(ct, 0)
		ct = dropped
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
	phase("bootstrap.ModRaise", func() {
		raised = b.modRaise(ct)
		ev.Release(dropped)
	})
	fi.Poly("bootstrap.ModRaise.c0", raised.C0)
	fi.Poly("bootstrap.ModRaise.c1", raised.C1)

	// CoeffToSlot: slots now hold (t_j + i·t_{j+n})/(2n·…) in bit-reversed
	// order, with the EvalMod normalization folded in.
	phase("bootstrap.CoeffToSlot", func() {
		w := b.cts.apply(ev, raised)
		ev.Release(raised)
		// Conjugate split into the two real coefficient halves.
		wc := ev.Conjugate(w)
		ctReal = ev.Add(w, wc)
		diff := ev.Sub(w, wc)
		ctImag = ev.MulByMinusI(diff)
		ev.Release(w, wc, diff)
	})
	fi.Poly("bootstrap.CoeffToSlot.c0", ctReal.C0)
	fi.Poly("bootstrap.CoeffToSlot.c1", ctReal.C1)

	// Approximate modular reduction on both halves.
	phase("bootstrap.EvalMod", func() {
		in := [2]*ckks.Ciphertext{ctReal, ctImag}
		ctReal, ctImag = b.evalMod(ctReal, ctImag)
		ev.Release(in[:]...)
	})
	fi.Poly("bootstrap.EvalMod.c0", ctReal.C0)
	fi.Poly("bootstrap.EvalMod.c1", ctReal.C1)

	// Recombine and return to the coefficient domain.
	phase("bootstrap.SlotToCoeff", func() {
		imag := ev.MulByI(ctImag)
		sum := ev.Add(ctReal, imag)
		ev.Release(ctReal, ctImag, imag)
		out = b.stc.apply(ev, sum)
		ev.Release(sum)
	})
	fi.Poly("bootstrap.SlotToCoeff.c0", out.C0)
	fi.Poly("bootstrap.SlotToCoeff.c1", out.C1)

	// The slots now read the original message directly: every
	// normalization constant was folded into the DFT matrices, so the
	// tracked scale is already consistent with the slot values.
	return out
}
