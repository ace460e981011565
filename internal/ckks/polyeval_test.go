package ckks

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

var basisName = map[Basis]string{Monomial: "monomial", Chebyshev: "chebyshev"}

// polyTestContext builds a context with a deeper chain for polynomial
// evaluation (degree 63 needs 9 levels).
func polyTestContext(t *testing.T) (*testContext, *Evaluator) {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{50, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40},
		LogP:     []int{50, 50},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := testSource()
	kg := NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	tc := &testContext{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg,
		sk:     sk,
		encSk:  NewSecretKeyEncryptor(params, sk, src),
		dec:    NewDecryptor(params, sk),
	}
	rlk := kg.GenRelinearizationKey(sk, false)
	return tc, NewEvaluator(params, &EvaluationKeySet{Rlk: rlk})
}

// evalPlain evaluates Σ c_k·b_k(x) in the clear: Horner for monomials,
// Clenshaw for Chebyshev.
func evalPlain(basis Basis, coeffs []float64, x float64) float64 {
	if basis == Chebyshev {
		var b1, b2 float64
		for k := len(coeffs) - 1; k >= 1; k-- {
			b1, b2 = 2*x*b1-b2+coeffs[k], b1
		}
		return x*b1 - b2 + coeffs[0]
	}
	acc := 0.0
	for k := len(coeffs) - 1; k >= 0; k-- {
		acc = acc*x + coeffs[k]
	}
	return acc
}

// TestEvalPolynomialAgainstPlain is the executor's one table: every
// (basis, degree) row is decrypted against the plain evaluation of the
// same coefficients. Degrees sit on both sides of each change of shape in
// the schedule: a single leaf (1), the first split (2, 3), a new baby
// bound (4, 5, 16), a full giant ladder (15, 31, 63) and a ragged one (23).
// No coefficient is zero, so no row is shortened by the trim.
func TestEvalPolynomialAgainstPlain(t *testing.T) {
	tc, ev := polyTestContext(t)
	rng := rand.New(rand.NewPCG(22, 1))
	xs := make([]complex128, tc.params.Slots())
	for i := range xs {
		xs[i] = complex(rng.Float64()*2-1, 0)
	}
	ct := tc.encSk.Encrypt(tc.enc.Encode(xs))

	for _, basis := range []Basis{Monomial, Chebyshev} {
		for _, d := range []int{1, 2, 3, 4, 5, 7, 15, 16, 23, 31, 63} {
			t.Run(fmt.Sprintf("%s/%d", basisName[basis], d), func(t *testing.T) {
				coeffs := make([]float64, d+1)
				for k := range coeffs {
					coeffs[k] = (rng.Float64() - 0.4) / float64(k+1)
				}
				got := tc.enc.Decode(tc.dec.DecryptToPlaintext(ev.EvalPolynomial(ct, basis, coeffs)))
				worst := 0.0
				for i := range xs {
					worst = max(worst, math.Abs(real(got[i])-evalPlain(basis, coeffs, real(xs[i]))))
				}
				if worst > 1e-4 {
					t.Errorf("polynomial evaluation error %.3g too large", worst)
				}
			})
		}
	}
}

func TestEvalPolynomialConstant(t *testing.T) {
	tc, ev := polyTestContext(t)
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))
	out := ev.EvalPolynomial(ct, Monomial, []float64{0.75})
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(out))
	for i := 0; i < 8; i++ {
		if d := math.Abs(real(got[i]) - 0.75); d > 1e-6 {
			t.Fatalf("slot %d: constant poly gave %v", i, got[i])
		}
	}
}

func TestEvalPolynomialTrimsZeroTail(t *testing.T) {
	tc, ev := polyTestContext(t)
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))
	// The zero tail must not consume extra levels: degree-1 poly padded
	// with zeros should leave the same level as unpadded.
	a := ev.EvalPolynomial(ct, Monomial, []float64{0.1, 0.9})
	b := ev.EvalPolynomial(ct, Monomial, []float64{0.1, 0.9, 0, 0, 0, 0, 0, 0})
	if a.Level != b.Level {
		t.Errorf("zero tail consumed levels: %d vs %d", a.Level, b.Level)
	}
	// Degree 1 is one leaf: a single Rescale, no square nothing reads.
	if a.Level != ct.Level-1 {
		t.Errorf("degree-1 polynomial went from level %d to %d, want one level", ct.Level, a.Level)
	}
}

// TestSigmoidDegree7 evaluates the HELR sigmoid approximation and checks
// it against the true sigmoid inside the approximation's domain.
func TestSigmoidDegree7(t *testing.T) {
	tc, ev := polyTestContext(t)
	coeffs := SigmoidCoeffs()

	n := tc.params.Slots()
	xs := make([]complex128, n)
	for i := range xs {
		xs[i] = complex(rand.Float64()*8-4, 0) // inputs in [-4, 4]
	}
	ct := tc.encSk.Encrypt(tc.enc.Encode(xs))
	out := ev.EvalPolynomial(ct, Monomial, coeffs)

	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(out))
	worst := 0.0
	for i := range xs {
		x := real(xs[i])
		sigma := 1 / (1 + math.Exp(-x))
		if d := math.Abs(real(got[i]) - sigma); d > worst {
			worst = d
		}
	}
	// The degree-7 fit itself has ~3e-2 max error on this range; the
	// homomorphic evaluation must not add to it noticeably.
	if worst > 5e-2 {
		t.Errorf("homomorphic sigmoid error %.3g too large", worst)
	}
	approxErr := 0.0
	for x := -4.0; x <= 4; x += 0.25 {
		d := math.Abs(evalPlain(Monomial, coeffs, x) - 1/(1+math.Exp(-x)))
		if d > approxErr {
			approxErr = d
		}
	}
	if worst > approxErr+1e-3 {
		t.Errorf("homomorphic error %.3g vs plain approximation error %.3g", worst, approxErr)
	}
}
