package bootstrap

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"repro/internal/ckks"
)

// Phase-isolation tests: each stage of Algorithm 4 is checked against its
// plaintext counterpart by decrypting the intermediate ciphertexts.

type phaseFixture struct {
	params    *ckks.Parameters
	btp       *Bootstrapper
	enc       *ckks.Encoder
	encryptor *ckks.Encryptor
	dec       *ckks.Decryptor
	sk        *ckks.SecretKey
}

func newPhaseFixture(t *testing.T) *phaseFixture {
	t.Helper()
	params := bootParams(t)
	src := bootSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)
	btp, err := NewBootstrapper(params, DefaultParameters(), sk, src, false)
	if err != nil {
		t.Fatal(err)
	}
	return &phaseFixture{
		params:    params,
		btp:       btp,
		enc:       ckks.NewEncoder(params),
		encryptor: ckks.NewSecretKeyEncryptor(params, sk, src),
		dec:       ckks.NewDecryptor(params, sk),
		sk:        sk,
	}
}

// TestModRaisePreservesMessageModQ0: after the raise, every plaintext
// coefficient must be congruent mod q0 to the level-0 coefficient, and
// the overflow multiple k must respect the K bound.
func TestModRaisePreservesMessageModQ0(t *testing.T) {
	fx := newPhaseFixture(t)
	msg := make([]complex128, fx.params.Slots())
	for i := range msg {
		msg[i] = complex(rand.Float64()*2-1, rand.Float64()*2-1)
	}
	ct := fx.encryptor.Encrypt(fx.enc.Encode(msg))
	ct = fx.btp.Evaluator().DropLevel(ct, 0)

	// Level-0 plaintext coefficients, in [0, q0).
	pt0 := fx.dec.DecryptToPlaintext(ct)
	low := pt0.Value.CopyNew()
	fx.params.RingQ().AtLevel(0).INTTPoly(low)

	raised := fx.btp.modRaise(ct)
	ptR := fx.dec.DecryptToPlaintext(raised)
	high := ptR.Value.CopyNew()
	rQ := fx.params.RingQ()
	rQ.INTTPoly(high)

	bigCoeffs := rQ.ToBigCoeffs(high)
	bigQ := big.NewInt(1)
	for _, q := range fx.params.Q() {
		bigQ.Mul(bigQ, new(big.Int).SetUint64(q))
	}
	halfQ := new(big.Int).Rsh(bigQ, 1)
	q0 := new(big.Int).SetUint64(fx.params.Q()[0])
	maxK := int64(0)
	for j := 0; j < fx.params.N(); j++ {
		v := bigCoeffs[j]
		if v.Cmp(halfQ) > 0 {
			v.Sub(v, bigQ) // centered representative
		}
		// diff = raised − low must be a multiple of q0 …
		diff := new(big.Int).Sub(v, new(big.Int).SetUint64(low.Coeffs[0][j]))
		k, rem := new(big.Int).QuoRem(diff, q0, new(big.Int))
		if rem.Sign() != 0 {
			t.Fatalf("coefficient %d: raise is not congruent mod q0 (rem %v)", j, rem)
		}
		// … with a small multiplier.
		if kk := k.Int64(); kk > maxK {
			maxK = kk
		} else if -kk > maxK {
			maxK = -kk
		}
	}
	bound := int64(DefaultParameters().K)
	if maxK >= bound {
		t.Errorf("‖k‖∞ = %d reaches the K = %d range bound", maxK, bound)
	}
	t.Logf("modRaise: ‖k‖∞ = %d (K = %d)", maxK, bound)
}

// TestCoeffToSlotMatchesPlainTransform: the homomorphic CoeffToSlot must
// agree with the plaintext application of the same grouped stages (with
// the folded constants) on the decrypted slot values.
func TestCoeffToSlotMatchesPlainTransform(t *testing.T) {
	fx := newPhaseFixture(t)
	n := fx.params.Slots()
	msg := make([]complex128, n)
	for i := range msg {
		msg[i] = complex(rand.Float64()*2-1, rand.Float64()*2-1)
	}
	ct := fx.encryptor.Encrypt(fx.enc.Encode(msg))
	ct = fx.btp.Evaluator().DropLevel(ct, 0)
	raised := fx.btp.modRaise(ct)

	// Plain reference: decode the raised ciphertext, then apply the full
	// encode-direction stage sequence scaled by the CoeffToSlot fold.
	zs := fx.enc.Decode(fx.dec.DecryptToPlaintext(raised))
	want := append([]complex128(nil), zs...)
	fx.enc.ApplyFFTStages(want, 0, fx.enc.FFTStageCount(), true)
	q0 := float64(fx.params.Q()[0])
	fold := (1 / (2 * float64(n))) * (fx.params.Scale() / (float64(DefaultParameters().K) * q0))
	for i := range want {
		want[i] *= complex(fold, 0)
	}

	got := fx.dec
	w := fx.btp.cts.apply(fx.btp.ev, raised)
	gotSlots := fx.enc.Decode(got.DecryptToPlaintext(w))

	// Scale-relative comparison (the slot values are ~1e-2 … 1).
	worst, mag := 0.0, 0.0
	for i := range want {
		if a := cmplx.Abs(want[i]); a > mag {
			mag = a
		}
		if d := cmplx.Abs(want[i] - gotSlots[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-6*math.Max(mag, 1) {
		t.Errorf("CoeffToSlot diverges from the plain transform: %.3g (magnitude %.3g)", worst, mag)
	}
}

// TestEvalModApproximatesSine: feed slot values u ∈ [-1, 1] directly and
// check the EvalMod pipeline computes sin(2πK·u).
func TestEvalModApproximatesSine(t *testing.T) {
	fx := newPhaseFixture(t)
	n := fx.params.Slots()
	bp := DefaultParameters()

	us := make([]complex128, n)
	for i := range us {
		us[i] = complex(rand.Float64()*2-1, 0)
	}
	ct := fx.encryptor.Encrypt(fx.enc.Encode(us))
	out := fx.btp.evalMod(ct)
	got := fx.enc.Decode(fx.dec.DecryptToPlaintext(out))

	worst := 0.0
	for i := range us {
		want := math.Sin(2 * math.Pi * float64(bp.K) * real(us[i]))
		if d := math.Abs(real(got[i]) - want); d > worst {
			worst = d
		}
	}
	if worst > 1e-4 {
		t.Errorf("EvalMod sine error %.3g too large", worst)
	}
	t.Logf("EvalMod: max |sin error| = %.3g over %d slots", worst, n)
}

// TestBootstrapPrecisionStats records the refreshed precision with the
// library's own precision reporter (~13 bits worst-slot at these toy
// parameters, with q0/Δ = 2^8 balancing sine linearization against the
// noise floor).
func TestBootstrapPrecisionStats(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	fx := newPhaseFixture(t)
	n := fx.params.Slots()
	msg := make([]complex128, n)
	for i := range msg {
		msg[i] = complex(rand.Float64()*2-1, rand.Float64()*2-1)
	}
	ct := fx.encryptor.Encrypt(fx.enc.Encode(msg))
	ct = fx.btp.Evaluator().DropLevel(ct, 0)
	out := fx.btp.Bootstrap(ct)
	got := fx.enc.Decode(fx.dec.DecryptToPlaintext(out))

	stats := ckks.Precision(msg, got)
	t.Logf("bootstrap %v", stats)
	if stats.MinPrecisionBits < 12 {
		t.Errorf("worst-slot precision %.1f bits below the 12-bit floor", stats.MinPrecisionBits)
	}
	if stats.MedianPrecisionBits < 14 {
		t.Errorf("median precision %.1f bits below the 14-bit floor", stats.MedianPrecisionBits)
	}
}
