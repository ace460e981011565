package ring

import (
	"fmt"
	"math/big"

	"repro/internal/mathutil"
)

// Poly is an RNS polynomial: Coeffs[i][j] is coefficient j modulo the i-th
// ring modulus. IsNTT records whether the limbs are in evaluation
// (bit-reversed NTT) form or natural coefficient form.
type Poly struct {
	Coeffs [][]uint64
	IsNTT  bool
}

// Level returns the polynomial's level, i.e. the index of its last limb.
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// CopyNew returns a deep copy of p.
func (p *Poly) CopyNew() *Poly {
	out := &Poly{Coeffs: make([][]uint64, len(p.Coeffs)), IsNTT: p.IsNTT}
	for i := range p.Coeffs {
		out.Coeffs[i] = append([]uint64(nil), p.Coeffs[i]...)
	}
	return out
}

// Copy copies p into out. The destination must have been allocated with at
// least as many limbs as the source (len or spare capacity); a destination
// previously truncated by Resize is resliced back up, so buffer-reuse
// callers never lose limbs permanently. After Copy, out has exactly the
// source's limb count; any upper limbs the destination had beyond that
// remain intact in its capacity and can be recovered with Resize.
func (p *Poly) Copy(out *Poly) {
	if cap(out.Coeffs) < len(p.Coeffs) {
		panic(fmt.Sprintf("ring: Copy destination limbs (got=%d, want>=%d)", cap(out.Coeffs), len(p.Coeffs)))
	}
	out.Coeffs = out.Coeffs[:len(p.Coeffs)]
	for i := range p.Coeffs {
		copy(out.Coeffs[i], p.Coeffs[i])
	}
	out.IsNTT = p.IsNTT
}

// Resize sets the polynomial's limb count, growing back into spare slice
// capacity when limbs exceeds the current length (limbs recovered this way
// hold stale data; callers that need zeros must clear them). It panics if
// the backing allocation never held that many limbs.
func (p *Poly) Resize(limbs int) {
	if limbs < 0 || limbs > cap(p.Coeffs) {
		panic(fmt.Sprintf("ring: Resize limbs (got=%d, want within [0,%d])", limbs, cap(p.Coeffs)))
	}
	p.Coeffs = p.Coeffs[:limbs]
}

// Zero sets all coefficients of p to zero.
func (p *Poly) Zero() {
	for i := range p.Coeffs {
		clear(p.Coeffs[i])
	}
}

// Equal reports whether p and o hold identical limbs and representation.
func (p *Poly) Equal(o *Poly) bool {
	if p.IsNTT != o.IsNTT || len(p.Coeffs) != len(o.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		if len(p.Coeffs[i]) != len(o.Coeffs[i]) {
			return false
		}
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != o.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// checkCompat panics if the operand polynomials do not all have at least
// level+1 limbs, where level is the ring's top level.
func (r *Ring) checkCompat(ps ...*Poly) {
	for _, p := range ps {
		if p.Level() < r.MaxLevel() {
			panic(fmt.Sprintf("ring: polynomial level below ring (got=%d, want>=%d)", p.Level(), r.MaxLevel()))
		}
	}
}

// Add sets out = a + b limb-wise over the ring's moduli.
func (r *Ring) Add(a, b, out *Poly) {
	r.checkCompat(a, b, out)
	for i, s := range r.SubRings {
		q := s.Q
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		s.tr.Read(ai[:r.N])
		s.tr.Read(bi[:r.N])
		for j := range oi[:r.N] {
			oi[j] = mathutil.AddMod(ai[j], bi[j], q)
		}
		s.tr.Write(oi[:r.N])
	}
	out.IsNTT = a.IsNTT
}

// Sub sets out = a - b limb-wise.
func (r *Ring) Sub(a, b, out *Poly) {
	r.checkCompat(a, b, out)
	for i, s := range r.SubRings {
		q := s.Q
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		s.tr.Read(ai[:r.N])
		s.tr.Read(bi[:r.N])
		for j := range oi[:r.N] {
			oi[j] = mathutil.SubMod(ai[j], bi[j], q)
		}
		s.tr.Write(oi[:r.N])
	}
	out.IsNTT = a.IsNTT
}

// Neg sets out = -a limb-wise.
func (r *Ring) Neg(a, out *Poly) {
	r.checkCompat(a, out)
	for i, s := range r.SubRings {
		q := s.Q
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		s.tr.Read(ai[:r.N])
		for j := range oi[:r.N] {
			oi[j] = mathutil.NegMod(ai[j], q)
		}
		s.tr.Write(oi[:r.N])
	}
	out.IsNTT = a.IsNTT
}

// MulCoeffs sets out = a ⊙ b, the slot-wise (Hadamard) product. Operands
// must be in NTT form for this to equal ring multiplication.
func (r *Ring) MulCoeffs(a, b, out *Poly) {
	r.checkCompat(a, b, out)
	for i, s := range r.SubRings {
		br := s.Barrett
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		s.tr.Read(ai[:r.N])
		s.tr.Read(bi[:r.N])
		for j := range oi[:r.N] {
			oi[j] = br.MulMod(ai[j], bi[j])
		}
		s.tr.Write(oi[:r.N])
	}
	out.IsNTT = a.IsNTT
}

// MulCoeffsThenAdd sets out += a ⊙ b slot-wise.
func (r *Ring) MulCoeffsThenAdd(a, b, out *Poly) {
	r.checkCompat(a, b, out)
	for i, s := range r.SubRings {
		s.tr.Read(a.Coeffs[i][:r.N])
		s.tr.Read(b.Coeffs[i][:r.N])
		s.tr.Read(out.Coeffs[i][:r.N])
		s.MulThenAddVec(a.Coeffs[i], b.Coeffs[i], out.Coeffs[i][:r.N])
		s.tr.Write(out.Coeffs[i][:r.N])
	}
	out.IsNTT = a.IsNTT
}

// MulThenAddVec sets acc[j] += a[j]·b[j] mod q over a single limb: the
// per-limb core of MulCoeffsThenAdd, and the strict composition the fused
// key-switch kernel (GatherMulAccumulate) is tested bit-identical against.
func (s *SubRing) MulThenAddVec(a, b, acc []uint64) {
	br, q := s.Barrett, s.Q
	for j := range acc {
		acc[j] = mathutil.AddMod(acc[j], br.MulMod(a[j], b[j]), q)
	}
}

// MForm sets out[j] = a[j]·R mod q with R = 2^64 mod q over a single limb:
// the Montgomery form GatherMulAccumulate takes its d operand in. a must
// be canonical; out may alias a.
func (s *SubRing) MForm(a, out []uint64) {
	r, rs, q := s.r, s.rShoup, s.Q
	a = a[:len(out)]
	for j := range out {
		out[j] = mathutil.MulModShoup(a[j], r, rs, q)
	}
}

// MulScalar sets out = c · a for a scalar c (reduced per modulus).
func (r *Ring) MulScalar(a *Poly, c uint64, out *Poly) {
	r.checkCompat(a, out)
	for i, s := range r.SubRings {
		ci := s.Barrett.Reduce(c)
		cs := mathutil.ShoupPrecomp(ci, s.Q)
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		s.tr.Read(ai[:r.N])
		for j := range oi[:r.N] {
			oi[j] = mathutil.MulModShoup(ai[j], ci, cs, s.Q)
		}
		s.tr.Write(oi[:r.N])
	}
	out.IsNTT = a.IsNTT
}

// AddScalar sets out = a + c (c added to the constant coefficient in
// coefficient form, or to every slot in NTT form — the caller chooses the
// representation that matches the intent).
func (r *Ring) AddScalar(a *Poly, c uint64, out *Poly) {
	r.checkCompat(a, out)
	for i, s := range r.SubRings {
		ci := s.Barrett.Reduce(c)
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		s.tr.Read(ai[:r.N])
		if a.IsNTT {
			for j := range oi[:r.N] {
				oi[j] = mathutil.AddMod(ai[j], ci, s.Q)
			}
		} else {
			copy(oi[:r.N], ai[:r.N])
			oi[0] = mathutil.AddMod(ai[0], ci, s.Q)
		}
		s.tr.Write(oi[:r.N])
	}
	out.IsNTT = a.IsNTT
}

// MulRingElement multiplies two polynomials given in coefficient form via
// NTT → pointwise → iNTT, writing the coefficient-form product to out.
// It is a convenience for tests; the evaluator keeps operands in NTT form.
func (r *Ring) MulRingElement(a, b, out *Poly) {
	an := a.CopyNew()
	bn := b.CopyNew()
	r.NTTPoly(an)
	r.NTTPoly(bn)
	r.MulCoeffs(an, bn, out)
	r.INTTPoly(out)
}

// ToBigCoeffs reconstructs coefficient j of p (coefficient form) as an
// integer modulo the product of the ring moduli, via the CRT. Intended for
// tests and debugging; it allocates big.Ints freely.
func (r *Ring) ToBigCoeffs(p *Poly) []*big.Int {
	if p.IsNTT {
		panic("ring: ToBigCoeffs input domain (got=NTT, want=coefficient form)")
	}
	bigQ := big.NewInt(1)
	for _, q := range r.Moduli {
		bigQ.Mul(bigQ, new(big.Int).SetUint64(q))
	}
	// CRT basis: e_i = (Q/q_i) * ((Q/q_i)^-1 mod q_i)
	basis := make([]*big.Int, len(r.Moduli))
	for i, q := range r.Moduli {
		qi := new(big.Int).SetUint64(q)
		Qi := new(big.Int).Div(bigQ, qi)
		inv := new(big.Int).ModInverse(Qi, qi)
		basis[i] = new(big.Int).Mul(Qi, inv)
	}
	out := make([]*big.Int, r.N)
	for j := 0; j < r.N; j++ {
		acc := new(big.Int)
		for i := range r.Moduli {
			term := new(big.Int).Mul(basis[i], new(big.Int).SetUint64(p.Coeffs[i][j]))
			acc.Add(acc, term)
		}
		acc.Mod(acc, bigQ)
		out[j] = acc
	}
	return out
}

// SetBigCoeffs sets p (coefficient form) from arbitrary-precision integers,
// reducing each one modulo every ring modulus. Negative values are allowed.
func (r *Ring) SetBigCoeffs(coeffs []*big.Int, p *Poly) {
	if len(coeffs) > r.N {
		panic("ring: too many coefficients")
	}
	p.Zero()
	tmp := new(big.Int)
	for i, q := range r.Moduli {
		qi := new(big.Int).SetUint64(q)
		for j, c := range coeffs {
			tmp.Mod(c, qi)
			p.Coeffs[i][j] = tmp.Uint64()
		}
	}
	p.IsNTT = false
}
