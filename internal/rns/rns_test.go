package rns

import (
	"math/big"
	"testing"

	"repro/internal/mathutil"
	"repro/internal/prng"
	"repro/internal/ring"
)

func fixedSource() *prng.Source {
	var seed [prng.SeedSize]byte
	copy(seed[:], "rns package deterministic testing")
	return prng.NewSource(seed)
}

// testRings builds a Q chain with nQ limbs and a P basis with nP limbs,
// all ~40-bit primes, degree n.
func testRings(t testing.TB, n, nQ, nP int) (*ring.Ring, *ring.Ring) {
	t.Helper()
	logN := 0
	for 1<<logN < n {
		logN++
	}
	primes, err := mathutil.GenerateNTTPrimes(40, logN, nQ+nP)
	if err != nil {
		t.Fatal(err)
	}
	ringQ, err := ring.NewRing(n, primes[:nQ])
	if err != nil {
		t.Fatal(err)
	}
	ringP, err := ring.NewRing(n, primes[nQ:])
	if err != nil {
		t.Fatal(err)
	}
	return ringQ, ringP
}

func bigProduct(moduli []uint64) *big.Int {
	p := big.NewInt(1)
	for _, q := range moduli {
		p.Mul(p, new(big.Int).SetUint64(q))
	}
	return p
}

func TestExtendExact(t *testing.T) {
	in := []uint64{1073741827 - 2, 1073750017, 1073602561}[1:] // placeholder replaced below
	_ = in
	inPrimes, err := mathutil.GenerateNTTPrimes(30, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	outPrimes, err := mathutil.GenerateNTTPrimes(31, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewExtTable(inPrimes, outPrimes)
	bigQ := bigProduct(inPrimes)
	src := fixedSource()

	const nCoeffs = 256
	srcLimbs := make([][]uint64, len(inPrimes))
	for i := range srcLimbs {
		srcLimbs[i] = make([]uint64, nCoeffs)
	}
	want := make([]*big.Int, nCoeffs)
	for c := 0; c < nCoeffs; c++ {
		x := new(big.Int).SetUint64(src.Uint64())
		x.Mul(x, new(big.Int).SetUint64(src.Uint64()))
		x.Mod(x, bigQ)
		want[c] = x
		for i, q := range inPrimes {
			srcLimbs[i][c] = new(big.Int).Mod(x, new(big.Int).SetUint64(q)).Uint64()
		}
	}
	dst := make([][]uint64, len(outPrimes))
	for j := range dst {
		dst[j] = make([]uint64, nCoeffs)
	}
	tab.Extend(srcLimbs, dst)
	for c := 0; c < nCoeffs; c++ {
		for j, p := range outPrimes {
			exp := new(big.Int).Mod(want[c], new(big.Int).SetUint64(p)).Uint64()
			if dst[j][c] != exp {
				t.Fatalf("coeff %d mod %d: got %d, want %d", c, p, dst[j][c], exp)
			}
		}
	}
}

// setFromBig writes per-coefficient big.Int values (already reduced mod the
// full basis product) into a coefficient-form poly over the given ring.
func setFromBig(r *ring.Ring, xs []*big.Int, p *ring.Poly) {
	for i, q := range r.Moduli {
		bq := new(big.Int).SetUint64(q)
		for c, x := range xs {
			p.Coeffs[i][c] = new(big.Int).Mod(x, bq).Uint64()
		}
	}
	p.IsNTT = false
}

func TestModUpDigit(t *testing.T) {
	const n = 32
	ringQ, ringP := testRings(t, n, 6, 2)
	conv := NewConverter(ringQ, ringP)
	src := fixedSource()

	levelQ := 5
	start, end := 2, 4
	aQ := ringQ.NewPoly()
	ringQ.SampleUniform(src, aQ)
	coeffForm := aQ.CopyNew()
	ringQ.NTTPoly(aQ)

	out := conv.NewPolyQP(levelQ)
	conv.ModUpDigit(levelQ, start, end, aQ, out, 1)

	// Expected: the digit's value x_d (CRT over moduli[start:end]) reduced
	// mod every output modulus, in Montgomery form: R·x_d, R = 2^64.
	digitModuli := ringQ.Moduli[start:end]
	bigD := bigProduct(digitModuli)
	outQ := out.Q.CopyNew()
	ringQ.INTTPoly(outQ)
	outP := out.P.CopyNew()
	ringP.INTTPoly(outP)

	bigR := new(big.Int).Lsh(big.NewInt(1), 64)
	for c := 0; c < n; c++ {
		// Reconstruct x_d via CRT from the original coefficient-form limbs.
		xd := big.NewInt(0)
		for i := start; i < end; i++ {
			qi := new(big.Int).SetUint64(ringQ.Moduli[i])
			Qi := new(big.Int).Div(bigD, qi)
			inv := new(big.Int).ModInverse(Qi, qi)
			term := new(big.Int).Mul(Qi, inv)
			term.Mul(term, new(big.Int).SetUint64(coeffForm.Coeffs[i][c]))
			xd.Add(xd, term)
		}
		xd.Mod(xd, bigD)
		xd.Mul(xd, bigR)
		for i := 0; i <= levelQ; i++ {
			want := new(big.Int).Mod(xd, new(big.Int).SetUint64(ringQ.Moduli[i])).Uint64()
			if outQ.Coeffs[i][c] != want {
				t.Fatalf("coeff %d, Q limb %d: got %d, want %d", c, i, outQ.Coeffs[i][c], want)
			}
		}
		for j := range ringP.Moduli {
			want := new(big.Int).Mod(xd, new(big.Int).SetUint64(ringP.Moduli[j])).Uint64()
			if outP.Coeffs[j][c] != want {
				t.Fatalf("coeff %d, P limb %d: got %d, want %d", c, j, outP.Coeffs[j][c], want)
			}
		}
	}
}

func TestModDownExactMultiples(t *testing.T) {
	const n = 32
	ringQ, ringP := testRings(t, n, 4, 2)
	conv := NewConverter(ringQ, ringP)
	src := fixedSource()

	levelQ := 3
	bigQ := bigProduct(ringQ.Moduli)
	bigP := bigProduct(ringP.Moduli)

	// x = P·y for random y over Q; ModDown must return exactly y.
	ys := make([]*big.Int, n)
	xs := make([]*big.Int, n)
	for c := range ys {
		y := new(big.Int).SetUint64(src.Uint64())
		y.Mul(y, new(big.Int).SetUint64(src.Uint64()))
		y.Mod(y, bigQ)
		ys[c] = y
		xs[c] = new(big.Int).Mul(y, bigP)
	}
	a := conv.NewPolyQP(levelQ)
	setFromBig(ringQ, xs, a.Q)
	setFromBig(ringP, xs, a.P)
	ringQ.NTTPoly(a.Q)
	ringP.NTTPoly(a.P)

	out := ringQ.NewPoly()
	conv.ModDown(levelQ, a, out, 1)
	ringQ.INTTPoly(out)

	for c := 0; c < n; c++ {
		for i := 0; i <= levelQ; i++ {
			want := new(big.Int).Mod(ys[c], new(big.Int).SetUint64(ringQ.Moduli[i])).Uint64()
			if out.Coeffs[i][c] != want {
				t.Fatalf("coeff %d limb %d: got %d, want %d", c, i, out.Coeffs[i][c], want)
			}
		}
	}
}

func TestModDownFlooring(t *testing.T) {
	const n = 32
	ringQ, ringP := testRings(t, n, 3, 2)
	conv := NewConverter(ringQ, ringP)
	src := fixedSource()

	levelQ := 2
	bigQ := bigProduct(ringQ.Moduli)
	bigP := bigProduct(ringP.Moduli)

	// x = P·y + r with 0 ≤ r < P: floor(x/P) = y.
	xs := make([]*big.Int, n)
	ys := make([]*big.Int, n)
	for c := range xs {
		y := new(big.Int).SetUint64(src.Uint64())
		y.Mod(y, bigQ)
		r := new(big.Int).SetUint64(src.Uint64())
		r.Mod(r, bigP)
		ys[c] = y
		xs[c] = new(big.Int).Add(new(big.Int).Mul(y, bigP), r)
	}
	a := conv.NewPolyQP(levelQ)
	setFromBig(ringQ, xs, a.Q)
	setFromBig(ringP, xs, a.P)
	ringQ.NTTPoly(a.Q)
	ringP.NTTPoly(a.P)

	out := ringQ.NewPoly()
	conv.ModDown(levelQ, a, out, 1)
	ringQ.INTTPoly(out)

	for c := 0; c < n; c++ {
		for i := 0; i <= levelQ; i++ {
			want := new(big.Int).Mod(ys[c], new(big.Int).SetUint64(ringQ.Moduli[i])).Uint64()
			if out.Coeffs[i][c] != want {
				t.Fatalf("coeff %d limb %d: got %d, want %d (flooring broken)", c, i, out.Coeffs[i][c], want)
			}
		}
	}
}

func TestRescaleRounds(t *testing.T) {
	const n = 32
	ringQ, ringP := testRings(t, n, 4, 1)
	conv := NewConverter(ringQ, ringP) // Rescale never touches P
	src := fixedSource()

	levelQ := 3
	bigQ := bigProduct(ringQ.Moduli)
	ql := new(big.Int).SetUint64(ringQ.Moduli[levelQ])
	half := new(big.Int).Rsh(ql, 1)

	xs := make([]*big.Int, n)
	for c := range xs {
		x := new(big.Int).SetUint64(src.Uint64())
		x.Mul(x, new(big.Int).SetUint64(src.Uint64()))
		x.Mod(x, bigQ)
		xs[c] = x
	}
	a := ringQ.NewPoly()
	setFromBig(ringQ, xs, a)
	ringQ.NTTPoly(a)

	out := ringQ.NewPoly()
	conv.Rescale(levelQ, a, out, 1)
	lowRing := ringQ.AtLevel(levelQ - 1)
	lowRing.INTTPoly(out)

	for c := 0; c < n; c++ {
		// round(x / q_ℓ) = floor((x + q_ℓ/2) / q_ℓ)
		want := new(big.Int).Add(xs[c], half)
		want.Div(want, ql)
		for i := 0; i < levelQ; i++ {
			w := new(big.Int).Mod(want, new(big.Int).SetUint64(ringQ.Moduli[i])).Uint64()
			if out.Coeffs[i][c] != w {
				t.Fatalf("coeff %d limb %d: got %d, want %d", c, i, out.Coeffs[i][c], w)
			}
		}
	}
	if out.Level() != levelQ-1 {
		t.Errorf("rescaled poly level = %d, want %d", out.Level(), levelQ-1)
	}
}

func TestPModUp(t *testing.T) {
	const n = 32
	ringQ, ringP := testRings(t, n, 3, 2)
	conv := NewConverter(ringQ, ringP)
	src := fixedSource()

	levelQ := 2
	a := ringQ.NewPoly()
	ringQ.SampleUniform(src, a)

	out := conv.NewPolyQP(levelQ)
	conv.PModUp(levelQ, a, out, 1)

	bigP := bigProduct(ringP.Moduli)
	for i := 0; i <= levelQ; i++ {
		q := ringQ.Moduli[i]
		pMod := new(big.Int).Mod(bigP, new(big.Int).SetUint64(q)).Uint64()
		for c := 0; c < n; c++ {
			want := mathutil.MulMod(a.Coeffs[i][c], pMod, q)
			if out.Q.Coeffs[i][c] != want {
				t.Fatalf("Q limb %d coeff %d: got %d, want %d", i, c, out.Q.Coeffs[i][c], want)
			}
		}
	}
	for j := range ringP.Moduli {
		for c := 0; c < n; c++ {
			if out.P.Coeffs[j][c] != 0 {
				t.Fatalf("P limb %d coeff %d: got %d, want 0", j, c, out.P.Coeffs[j][c])
			}
		}
	}
}

// TestPModUpThenModDownIsIdentity verifies the §3.2 identity: ModDown(PModUp(b)) = b.
func TestPModUpThenModDownIsIdentity(t *testing.T) {
	const n = 64
	ringQ, ringP := testRings(t, n, 4, 2)
	conv := NewConverter(ringQ, ringP)
	src := fixedSource()

	levelQ := 3
	a := ringQ.NewPoly()
	ringQ.SampleUniform(src, a)
	a.IsNTT = true // PModUp and ModDown are representation-agnostic pointwise ops

	lifted := conv.NewPolyQP(levelQ)
	conv.PModUp(levelQ, a, lifted, 1)
	back := ringQ.NewPoly()
	conv.ModDown(levelQ, lifted, back, 1)

	if !back.Equal(a) {
		t.Error("ModDown(PModUp(a)) != a")
	}
}
