package ring

import (
	"testing"

	"repro/internal/mathutil"
	"repro/internal/prng"
)

// testRing constructs a degree-n ring with nLimbs ~45-bit NTT primes.
func testRing(t testing.TB, n, nLimbs int) *Ring {
	t.Helper()
	logN := 0
	for 1<<logN < n {
		logN++
	}
	primes, err := mathutil.GenerateNTTPrimes(45, logN, nLimbs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(n, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mulRingElement multiplies two polynomials given in coefficient form via
// NTT → pointwise → iNTT, writing the coefficient-form product to out.
func mulRingElement(r *Ring, a, b, out *Poly) {
	an := a.CopyNew()
	bn := b.CopyNew()
	r.NTTPoly(an)
	r.NTTPoly(bn)
	r.MulCoeffs(an, bn, out)
	r.INTTPoly(out)
}

func fixedSource() *prng.Source {
	var seed [prng.SeedSize]byte
	copy(seed[:], "ring package deterministic tests")
	return prng.NewSource(seed)
}

func TestNewRingValidation(t *testing.T) {
	primes, _ := mathutil.GenerateNTTPrimes(30, 10, 2)
	if _, err := NewRing(1000, primes); err == nil {
		t.Error("expected error for non-power-of-two degree")
	}
	if _, err := NewRing(1024, nil); err == nil {
		t.Error("expected error for empty moduli")
	}
	if _, err := NewRing(1024, []uint64{primes[0], primes[0]}); err == nil {
		t.Error("expected error for duplicate moduli")
	}
	if _, err := NewRing(1024, []uint64{15}); err == nil {
		t.Error("expected error for composite modulus")
	}
	// A prime not ≡ 1 mod 2N.
	if _, err := NewRing(1024, []uint64{786433 + 2}); err == nil {
		t.Error("expected error for non-NTT-friendly modulus")
	}
}

func TestNTTRoundTrip(t *testing.T) {
	for _, n := range []int{16, 64, 1024, 4096} {
		r := testRing(t, n, 3)
		src := fixedSource()
		p := r.NewPoly()
		r.SampleUniform(src, p)
		want := p.CopyNew()
		r.NTTPoly(p)
		if !p.IsNTT {
			t.Fatal("IsNTT flag not set")
		}
		r.INTTPoly(p)
		if !p.Equal(want) {
			t.Fatalf("n=%d: NTT/iNTT round trip is not the identity", n)
		}
	}
}

func TestNTTLinearity(t *testing.T) {
	r := testRing(t, 256, 2)
	src := fixedSource()
	a, b := r.NewPoly(), r.NewPoly()
	r.SampleUniform(src, a)
	r.SampleUniform(src, b)

	sum := r.NewPoly()
	r.Add(a, b, sum)
	r.NTTPoly(sum)

	r.NTTPoly(a)
	r.NTTPoly(b)
	sum2 := r.NewPoly()
	r.Add(a, b, sum2)

	if !sum.Equal(sum2) {
		t.Error("NTT(a+b) != NTT(a)+NTT(b)")
	}
}

// schoolbookNegacyclic computes a*b mod (X^N+1) mod q directly in O(N^2).
func schoolbookNegacyclic(a, b []uint64, q uint64) []uint64 {
	n := len(a)
	br := mathutil.NewBarrett(q)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			prod := br.MulMod(a[i], b[j])
			k := i + j
			if k < n {
				out[k] = mathutil.AddMod(out[k], prod, q)
			} else {
				out[k-n] = mathutil.SubMod(out[k-n], prod, q)
			}
		}
	}
	return out
}

func TestNTTMultiplicationMatchesSchoolbook(t *testing.T) {
	r := testRing(t, 64, 2)
	src := fixedSource()
	a, b := r.NewPoly(), r.NewPoly()
	r.SampleUniform(src, a)
	r.SampleUniform(src, b)

	want0 := schoolbookNegacyclic(a.Coeffs[0], b.Coeffs[0], r.Moduli[0])
	want1 := schoolbookNegacyclic(a.Coeffs[1], b.Coeffs[1], r.Moduli[1])

	got := r.NewPoly()
	mulRingElement(r, a, b, got)

	for j := 0; j < r.N; j++ {
		if got.Coeffs[0][j] != want0[j] || got.Coeffs[1][j] != want1[j] {
			t.Fatalf("coefficient %d mismatch: got (%d,%d), want (%d,%d)",
				j, got.Coeffs[0][j], got.Coeffs[1][j], want0[j], want1[j])
		}
	}
}

func TestPolyArithmetic(t *testing.T) {
	r := testRing(t, 128, 3)
	src := fixedSource()
	a, b := r.NewPoly(), r.NewPoly()
	r.SampleUniform(src, a)
	r.SampleUniform(src, b)

	// (a + b) - b == a
	tmp, back := r.NewPoly(), r.NewPoly()
	r.Add(a, b, tmp)
	r.Sub(tmp, b, back)
	if !back.Equal(a) {
		t.Error("(a+b)-b != a")
	}

	// a + (-a) == 0
	neg, zero := r.NewPoly(), r.NewPoly()
	r.Neg(a, neg)
	r.Add(a, neg, zero)
	for i := range zero.Coeffs {
		for j := range zero.Coeffs[i] {
			if zero.Coeffs[i][j] != 0 {
				t.Fatal("a + (-a) != 0")
			}
		}
	}

	// MulScalar(2) == a+a
	twice, double := r.NewPoly(), r.NewPoly()
	r.MulScalar(a, 2, twice)
	r.Add(a, a, double)
	if !twice.Equal(double) {
		t.Error("2*a != a+a")
	}
}

func TestMulCoeffsThenAdd(t *testing.T) {
	r := testRing(t, 64, 2)
	src := fixedSource()
	a, b, acc := r.NewPoly(), r.NewPoly(), r.NewPoly()
	r.SampleUniform(src, a)
	r.SampleUniform(src, b)
	r.SampleUniform(src, acc)
	want := acc.CopyNew()
	prod := r.NewPoly()
	r.MulCoeffs(a, b, prod)
	r.Add(want, prod, want)
	r.MulCoeffsThenAdd(a, b, acc)
	if !acc.Equal(want) {
		t.Error("MulCoeffsThenAdd != Add(MulCoeffs)")
	}
}

func TestAtLevel(t *testing.T) {
	r := testRing(t, 64, 4)
	r2 := r.AtLevel(1)
	if len(r2.Moduli) != 2 {
		t.Fatalf("AtLevel(1) has %d moduli, want 2", len(r2.Moduli))
	}
	if r2.Moduli[0] != r.Moduli[0] || r2.Moduli[1] != r.Moduli[1] {
		t.Error("AtLevel changed the moduli prefix")
	}
	// Operating at a lower level on full-size polys touches only the prefix limbs.
	src := fixedSource()
	a, b, out := r.NewPoly(), r.NewPoly(), r.NewPoly()
	r.SampleUniform(src, a)
	r.SampleUniform(src, b)
	r2.Add(a, b, out)
	for j := 0; j < r.N; j++ {
		if out.Coeffs[3][j] != 0 {
			t.Fatal("AtLevel add wrote to limbs above its level")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AtLevel out of range should panic")
		}
	}()
	r.AtLevel(99)
}

func TestAutomorphismCoeffsIdentity(t *testing.T) {
	r := testRing(t, 64, 2)
	src := fixedSource()
	p, out := r.NewPoly(), r.NewPoly()
	r.SampleUniform(src, p)
	r.AutomorphismCoeffs(p, 1, out)
	if !out.Equal(p) {
		t.Error("automorphism with k=1 is not the identity")
	}
}

func TestAutomorphismComposition(t *testing.T) {
	r := testRing(t, 64, 2)
	src := fixedSource()
	p := r.NewPoly()
	r.SampleUniform(src, p)
	m := uint64(2 * r.N)

	k1, k2 := uint64(5), uint64(25)
	a, b, c := r.NewPoly(), r.NewPoly(), r.NewPoly()
	r.AutomorphismCoeffs(p, k1, a)
	r.AutomorphismCoeffs(a, k1, b) // σ_5(σ_5(p)) = σ_25(p)
	r.AutomorphismCoeffs(p, k2%m, c)
	if !b.Equal(c) {
		t.Error("σ_5 ∘ σ_5 != σ_25")
	}
}

func TestAutomorphismNTTMatchesCoeffs(t *testing.T) {
	r := testRing(t, 128, 3)
	src := fixedSource()
	p := r.NewPoly()
	r.SampleUniform(src, p)

	for _, k := range []uint64{1, 5, 25, 125 % uint64(2*r.N), uint64(2*r.N - 1)} {
		want := r.NewPoly()
		r.AutomorphismCoeffs(p, k, want)
		r.NTTPoly(want)

		pn := p.CopyNew()
		r.NTTPoly(pn)
		got := r.NewPoly()
		r.AutomorphismNTT(pn, k, got)

		if !got.Equal(want) {
			t.Errorf("k=%d: NTT-domain automorphism disagrees with coefficient-domain", k)
		}
	}
}

func TestGaloisElement(t *testing.T) {
	r := testRing(t, 64, 1)
	if g := r.GaloisElement(0); g != 1 {
		t.Errorf("GaloisElement(0) = %d, want 1", g)
	}
	if g := r.GaloisElement(1); g != 5 {
		t.Errorf("GaloisElement(1) = %d, want 5", g)
	}
	// Rotation by n (= N/2) slots is the identity.
	if g := r.GaloisElement(r.N / 2); g != 1 {
		t.Errorf("GaloisElement(n) = %d, want 1", g)
	}
	// Negative steps wrap.
	gNeg := r.GaloisElement(-1)
	gPos := r.GaloisElement(r.N/2 - 1)
	if gNeg != gPos {
		t.Errorf("GaloisElement(-1)=%d != GaloisElement(n-1)=%d", gNeg, gPos)
	}
	if g := r.GaloisElementConjugate(); g != uint64(2*r.N-1) {
		t.Errorf("conjugate element = %d, want %d", g, 2*r.N-1)
	}
}

func TestSampleTernary(t *testing.T) {
	r := testRing(t, 4096, 2)
	src := fixedSource()
	p := r.NewPoly()
	r.SampleTernary(src, 2.0/3.0, p)
	counts := map[int64]int{}
	for j := 0; j < r.N; j++ {
		v0 := p.Coeffs[0][j]
		var s int64
		switch v0 {
		case 0:
			s = 0
		case 1:
			s = 1
		case r.Moduli[0] - 1:
			s = -1
		default:
			t.Fatalf("non-ternary coefficient %d", v0)
		}
		// All limbs must agree on the signed value.
		v1 := p.Coeffs[1][j]
		switch s {
		case 0:
			if v1 != 0 {
				t.Fatal("limbs disagree")
			}
		case 1:
			if v1 != 1 {
				t.Fatal("limbs disagree")
			}
		case -1:
			if v1 != r.Moduli[1]-1 {
				t.Fatal("limbs disagree")
			}
		}
		counts[s]++
	}
	// Roughly 1/3 each.
	for s, c := range counts {
		frac := float64(c) / float64(r.N)
		if frac < 0.28 || frac > 0.39 {
			t.Errorf("value %d frequency %.3f outside [0.28, 0.39]", s, frac)
		}
	}
}

func TestSampleGaussian(t *testing.T) {
	r := testRing(t, 8192, 1)
	src := fixedSource()
	p := r.NewPoly()
	r.SampleGaussian(src, DefaultSigma, p)
	q := r.Moduli[0]
	var sum, sumSq float64
	for j := 0; j < r.N; j++ {
		v := p.Coeffs[0][j]
		var s float64
		if v > q/2 {
			s = -float64(q - v)
		} else {
			s = float64(v)
		}
		if s > 6*DefaultSigma || s < -6*DefaultSigma {
			t.Fatalf("sample %v beyond 6 sigma", s)
		}
		sum += s
		sumSq += s * s
	}
	mean := sum / float64(r.N)
	std := sumSq/float64(r.N) - mean*mean
	if mean > 0.2 || mean < -0.2 {
		t.Errorf("mean %v far from 0", mean)
	}
	if std < 8 || std > 13 { // sigma^2 = 10.24
		t.Errorf("variance %v far from %v", std, DefaultSigma*DefaultSigma)
	}
}

func TestCopySemantics(t *testing.T) {
	r := testRing(t, 32, 2)
	src := fixedSource()
	p := r.NewPoly()
	r.SampleUniform(src, p)
	c := p.CopyNew()
	p.Coeffs[0][0] ^= 1
	if c.Coeffs[0][0] == p.Coeffs[0][0] {
		t.Error("CopyNew aliases the source storage")
	}
	p.Copy(c)
	if !c.Equal(p) {
		t.Error("Copy did not produce an equal polynomial")
	}
}
