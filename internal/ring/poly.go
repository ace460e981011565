package ring

import (
	"fmt"

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
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		s.tr.Read(ai[:r.N])
		s.tr.Read(bi[:r.N])
		s.Add(ai, bi, oi[:r.N])
		s.tr.Write(oi[:r.N])
	}
	out.IsNTT = a.IsNTT
}

// Sub sets out = a - b limb-wise.
func (r *Ring) Sub(a, b, out *Poly) {
	r.checkCompat(a, b, out)
	for i, s := range r.SubRings {
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		s.tr.Read(ai[:r.N])
		s.tr.Read(bi[:r.N])
		s.Sub(ai, bi, oi[:r.N])
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
