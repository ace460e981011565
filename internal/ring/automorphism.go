package ring

import (
	"fmt"
	"sync"

	"repro/internal/mathutil"
)

// GaloisElement returns the Galois group element X → X^{5^step mod 2N}
// (or its inverse for negative step) that implements a rotation of the
// CKKS plaintext slots by step positions. GaloisElementConjugate covers
// complex conjugation.
func (r *Ring) GaloisElement(step int) uint64 {
	m := uint64(2 * r.N)
	g := uint64(1)
	s := ((step % (r.N / 2)) + r.N/2) % (r.N / 2) // rotations are mod n = N/2
	for i := 0; i < s; i++ {
		g = (g * 5) % m
	}
	return g
}

// GaloisElementConjugate returns the Galois element X → X^{2N-1}
// implementing complex conjugation of the slots.
func (r *Ring) GaloisElementConjugate() uint64 { return uint64(2*r.N - 1) }

// AutomorphismCoeffs applies the automorphism X → X^k to a polynomial in
// coefficient form: coefficient i moves to position i·k mod 2N, negated
// when it wraps past X^N = -1.
func (r *Ring) AutomorphismCoeffs(p *Poly, k uint64, out *Poly) {
	if p.IsNTT {
		panic("ring: AutomorphismCoeffs requires coefficient form")
	}
	if p == out {
		panic("ring: AutomorphismCoeffs cannot operate in place")
	}
	r.checkCompat(p, out)
	m := uint64(2 * r.N)
	if k%2 == 0 || k >= m {
		panic(fmt.Sprintf("ring: invalid Galois element %d", k))
	}
	mask := uint64(r.N - 1)
	for limb, s := range r.SubRings {
		src, dst := p.Coeffs[limb], out.Coeffs[limb]
		for i := uint64(0); i < uint64(r.N); i++ {
			e := i * k % m
			v := src[i]
			if e >= uint64(r.N) {
				v = mathutil.NegMod(v, s.Q)
			}
			dst[e&mask] = v
		}
	}
	out.IsNTT = false
}

// autoCache memoizes NTT-domain automorphism permutations. It is shared by
// every AtLevel view of a Ring and may be hit from concurrent rotation
// goroutines, so reads take an RLock and the first build of each table
// upgrades to a write lock.
type autoCache struct {
	mu     sync.RWMutex
	tables map[uint64][]int
}

// AutomorphismNTTIndex returns (building and caching on first use) the
// NTT-domain slot permutation for the automorphism X → X^k: out[i] =
// in[table[i]]. In the bit-reversed CT layout, slot i holds the evaluation
// of the polynomial at ψ^{2·brv(i)+1}; the automorphism therefore permutes
// slots without any arithmetic. The table depends on N and k only, is
// shared by every caller and must not be modified; kernels that fuse the
// gather into their own loop (SubRing.GatherMulAccumulate) take it as is.
func (r *Ring) AutomorphismNTTIndex(k uint64) []int {
	c := r.auto
	c.mu.RLock()
	t, ok := c.tables[k]
	c.mu.RUnlock()
	if ok {
		return t
	}
	m := uint64(2 * r.N)
	logN := r.LogN
	t = make([]int, r.N)
	for i := 0; i < r.N; i++ {
		e := 2*mathutil.BitReverse(uint64(i), logN) + 1
		ek := e * k % m
		j := mathutil.BitReverse((ek-1)/2, logN)
		t[i] = int(j)
	}
	c.mu.Lock()
	// A concurrent builder may have won the race; keep the first table so
	// all callers share one backing array.
	if prev, ok := c.tables[k]; ok {
		t = prev
	} else {
		c.tables[k] = t
	}
	c.mu.Unlock()
	return t
}

// AutomorphismNTT applies X → X^k to a polynomial in evaluation form by
// permuting slots: out[i] = p[table[i]].
func (r *Ring) AutomorphismNTT(p *Poly, k uint64, out *Poly) {
	if !p.IsNTT {
		panic("ring: AutomorphismNTT requires NTT form")
	}
	if p == out {
		panic("ring: AutomorphismNTT cannot operate in place")
	}
	r.checkCompat(p, out)
	t := r.AutomorphismNTTIndex(k)
	for limb, s := range r.SubRings {
		src, dst := p.Coeffs[limb], out.Coeffs[limb]
		s.tr.Read(src[:r.N])
		for i, j := range t {
			dst[i] = src[j]
		}
		s.tr.Write(dst[:r.N])
	}
	out.IsNTT = true
}
