package ckks

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/fherr"
	"repro/internal/mathutil"
	"repro/internal/obs"
	"repro/internal/ring"
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
				got := tc.enc.Decode(tc.dec.DecryptToPlaintext(ev.EvalPolynomial(basis, coeffs, ct)[0]))
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
	out := ev.EvalPolynomial(Monomial, []float64{0.75}, ct)[0]
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(out))
	for i := 0; i < 8; i++ {
		if d := math.Abs(real(got[i]) - 0.75); d > 1e-6 {
			t.Fatalf("slot %d: constant poly gave %v", i, got[i])
		}
	}
}

// TestEvalPolynomialRunsDeclaredDegree: the executor runs the plan of
// the degree it is given, however small the top coefficient — the plan
// BootPlan prices. A degree-8 polynomial whose c_8 is 1e-15 runs the
// ckks.Mult batches of NewPSPlan(8) (trimmed to degree 7 it would skip the
// giant b_8 and its split), and degree 1 is one leaf: a single Rescale.
func TestEvalPolynomialRunsDeclaredDegree(t *testing.T) {
	tc, ev := polyTestContext(t)
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))
	if a := ev.EvalPolynomial(Monomial, []float64{0.1, 0.9}, ct)[0]; a.Level != ct.Level-1 {
		t.Errorf("degree-1 polynomial went from level %d to %d, want one level", ct.Level, a.Level)
	}

	coeffs := []float64{0.1, 0.9, -0.2, 0.05, 0.3, -0.1, 0.02, 0.04, 1e-15}
	rec := obs.NewRecorder()
	ev.SetRecorder(rec)
	ev.EvalPolynomial(Monomial, coeffs, ct)
	ev.SetRecorder(nil)
	var got, want []mathutil.MultBatch
	for _, sp := range rec.Snapshot().SpansNamed("ckks.Mult") {
		// A single product's span carries no op.fanout.
		got = append(got, mathutil.MultBatch{Level: int(sp.Attrs["ct.level"]), Fanout: max(1, int(sp.Attrs["op.fanout"]))})
	}
	for i, k := range mathutil.NewPSPlan(len(coeffs) - 1).Products() {
		if k > 0 {
			want = append(want, mathutil.MultBatch{Level: ct.Level - i, Fanout: k})
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("degree-8 polynomial with c_8 = 1e-15 ran Mult batches (level, fanout) %v, its plan says %v", got, want)
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
	out := ev.EvalPolynomial(Monomial, coeffs, ct)[0]

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

// TestEvalPolynomialBatchMatchesSingles: a batch of 1, 2 or 3 inputs
// walks the schedule together, and each result is, bit for bit, what its
// input gives alone, in both bases at degrees 7, 31 and 63. The batch
// reads the relinearization key once per pass of up to ring.MaxLanes
// products of one level: its ckks.key.bytes is Σ over the levels of
// ⌈products/MaxLanes⌉ passes, the products per level counted here from
// the plan.
func TestEvalPolynomialBatchMatchesSingles(t *testing.T) {
	tc, ev := polyTestContext(t)
	p := tc.params
	rng := rand.New(rand.NewPCG(22, 2))
	cts := make([]*Ciphertext, 3)
	for x := range cts {
		xs := make([]complex128, p.Slots())
		for i := range xs {
			xs[i] = complex(rng.Float64()*2-1, 0)
		}
		cts[x] = tc.encSk.Encrypt(tc.enc.Encode(xs))
	}
	top := cts[0].Level
	passBytes := func(level int) uint64 {
		return 2 * uint64(p.Beta(level)) * uint64(level+1+p.Alpha()) * 8 * uint64(p.N())
	}
	for _, basis := range []Basis{Monomial, Chebyshev} {
		for _, d := range []int{7, 31, 63} {
			coeffs := make([]float64, d+1)
			for k := range coeffs {
				coeffs[k] = (rng.Float64() - 0.4) / float64(k+1)
			}
			singles := make([][]byte, len(cts))
			for x, ct := range cts {
				singles[x] = wire(t, ev.EvalPolynomial(basis, coeffs, ct)[0])
			}
			perLevel := planProductsPerLevel(mathutil.NewPSPlan(d), top)
			for k := 1; k <= len(cts); k++ {
				rec := obs.NewRecorder()
				ev.SetRecorder(rec)
				outs := ev.EvalPolynomial(basis, coeffs, cts[:k]...)
				ev.SetRecorder(nil)
				for x, out := range outs {
					if !bytes.Equal(wire(t, out), singles[x]) {
						t.Errorf("%s/%d, batch of %d: input %d differs from its single evaluation", basisName[basis], d, k, x)
					}
				}
				var want uint64
				for level, n := range perLevel {
					want += uint64((k*n+ring.MaxLanes-1)/ring.MaxLanes) * passBytes(level)
				}
				if got := rec.Counter("ckks.key.bytes"); got != want {
					t.Errorf("%s/%d, batch of %d: %d key bytes, want %d (one pass per %d products of a level)", basisName[basis], d, k, got, want, ring.MaxLanes)
				}
			}
		}
	}
}

// planProductsPerLevel counts one input's products of the plan by the
// level they run at, from an input at level top: each ladder step at the
// lower of its operands' levels, each split of the recursion one above
// the level its result lands at.
func planProductsPerLevel(plan mathutil.PSPlan, top int) map[int]int {
	n := map[int]int{}
	sits := map[int]int{1: top}
	for _, s := range plan.Ladder {
		l := min(sits[s.I], sits[s.J])
		n[l]++
		sits[s.K] = l - 1
	}
	_, depth := plan.Cost()
	var walk func(degree, level int)
	walk = func(degree, level int) {
		if degree < plan.Baby {
			return
		}
		g := plan.Giant(degree)
		n[level+1]++
		walk(degree-g, level+1)
		walk(g-1, level)
	}
	walk(plan.Degree, top-depth)
	return n
}

// TestEvalPolynomialRejectsMismatchedInputs: inputs at different levels or
// scales are a typed error before any product is spent.
func TestEvalPolynomialRejectsMismatchedInputs(t *testing.T) {
	tc, ev := polyTestContext(t)
	a := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))
	scaled := a.CopyNew()
	scaled.Scale *= 2
	coeffs := SigmoidCoeffs()
	for _, c := range []struct {
		name string
		b    *Ciphertext
		want error
	}{
		{"level", ev.DropLevel(a, a.Level-1), fherr.ErrLevelMismatch},
		{"scale", scaled, fherr.ErrScaleMismatch},
	} {
		rec := obs.NewRecorder()
		ev.SetRecorder(rec)
		out, err := ev.Do(context.Background(), "ckks.EvalPolynomial", func(ev *Evaluator) *Ciphertext {
			return ev.EvalPolynomial(Monomial, coeffs, a, c.b)[0]
		}, a, c.b)
		ev.SetRecorder(nil)
		if out != nil || !errors.Is(err, c.want) {
			t.Errorf("%s mismatch: got (%v, %v), want %v", c.name, out, err, c.want)
		}
		if n := rec.Counter("ckks.mult"); n != 0 {
			t.Errorf("%s mismatch: %d products ran before the panic", c.name, n)
		}
	}
}
