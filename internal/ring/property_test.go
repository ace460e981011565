package ring

import (
	"testing"
	"testing/quick"
)

// Property-based tests on the ring algebra: the laws the evaluator's
// correctness rests on, checked on randomized polynomials via
// testing/quick-driven index/seed generation.

// propRing is a shared small ring for the property tests.
func propRing(t *testing.T) *Ring {
	t.Helper()
	return testRing(t, 64, 2)
}

// randomPoly builds a deterministic pseudo-random polynomial from a seed.
func randomPoly(r *Ring, seed uint64) *Poly {
	p := r.NewPoly()
	state := seed | 1
	for i := range r.Moduli {
		q := r.Moduli[i]
		for j := 0; j < r.N; j++ {
			// xorshift64
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			p.Coeffs[i][j] = state % q
		}
	}
	return p
}

func TestPropertyAddCommutes(t *testing.T) {
	r := propRing(t)
	f := func(sa, sb uint64) bool {
		a, b := randomPoly(r, sa), randomPoly(r, sb)
		x, y := r.NewPoly(), r.NewPoly()
		r.Add(a, b, x)
		r.Add(b, a, y)
		return x.Equal(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMulDistributesOverAdd(t *testing.T) {
	r := propRing(t)
	f := func(sa, sb, sc uint64) bool {
		a, b, c := randomPoly(r, sa), randomPoly(r, sb), randomPoly(r, sc)
		// a ⊛ (b + c) == a ⊛ b + a ⊛ c (negacyclic convolution)
		sum, left := r.NewPoly(), r.NewPoly()
		r.Add(b, c, sum)
		mulRingElement(r, a, sum, left)

		ab, ac, right := r.NewPoly(), r.NewPoly(), r.NewPoly()
		mulRingElement(r, a, b, ab)
		mulRingElement(r, a, c, ac)
		r.Add(ab, ac, right)
		return left.Equal(right)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyAutomorphismIsRingHomomorphism(t *testing.T) {
	r := propRing(t)
	m := uint64(2 * r.N)
	f := func(sa, sb uint64, kRaw uint64) bool {
		k := (kRaw%(m/2))*2 + 1 // any odd element of Z_2N
		a, b := randomPoly(r, sa), randomPoly(r, sb)

		// σ(a ⊛ b) == σ(a) ⊛ σ(b)
		prod, sProd := r.NewPoly(), r.NewPoly()
		mulRingElement(r, a, b, prod)
		r.AutomorphismCoeffs(prod, k, sProd)

		sa2, sb2, right := r.NewPoly(), r.NewPoly(), r.NewPoly()
		r.AutomorphismCoeffs(a, k, sa2)
		r.AutomorphismCoeffs(b, k, sb2)
		mulRingElement(r, sa2, sb2, right)
		return sProd.Equal(right)
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyNTTPreservesAddition(t *testing.T) {
	r := propRing(t)
	f := func(sa, sb uint64) bool {
		a, b := randomPoly(r, sa), randomPoly(r, sb)
		sum := r.NewPoly()
		r.Add(a, b, sum)
		r.NTTPoly(sum)

		r.NTTPoly(a)
		r.NTTPoly(b)
		sum2 := r.NewPoly()
		r.Add(a, b, sum2)
		return sum.Equal(sum2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNegIsAdditionInverse(t *testing.T) {
	r := propRing(t)
	f := func(seed uint64) bool {
		a := randomPoly(r, seed)
		neg, sum := r.NewPoly(), r.NewPoly()
		r.Neg(a, neg)
		r.Add(a, neg, sum)
		for i := range sum.Coeffs {
			for _, v := range sum.Coeffs[i] {
				if v != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
