package ring

import (
	"math/bits"

	"repro/internal/mathutil"
)

// InnerProductTile is the coefficient-blocking width of the key-switch
// inner-product kernel: the number of output words whose four 128-bit
// accumulator halves (4 words per coefficient) stay in scratch while the
// β digit rows stream past. At 256 words that is 8 KiB — L1-resident next
// to the two key rows being read.
const InnerProductTile = 256

// GatherMulAccumulate is the fused key-switch inner product over one limb
// (Algorithm 3 line 3): with x_j[c] = d[j][perm[c]] (perm nil = identity)
// it writes
//
//	u[c] = Σ_j b[j][c]·x_j[c]·R⁻¹ mod q    and    v[c] = Σ_j a[j][c]·x_j[c]·R⁻¹ mod q
//
// for c in [0, len(u)), with R = 2^64 mod q. d, b and a hold this limb's
// row of the β ≥ 1 raised digits and of the two switching-key halves. The
// one rule: the d operand is in Montgomery form (R·x, see MForm), b and a
// are canonical, so u and v are the canonical Σ b·x and Σ a·x. Per tile of
// coefficients each digit word is gathered once, in the multiply loop, and
// feeds both products,
// the β products per output word are summed exactly in 128 bits and closed
// by one Montgomery reduction (mathutil.MontReduce), and u and v are
// written, never read: the destination needs no zeroing and a rotated
// digit is never materialized. A sum longer than MontMaxTerms(q) products
// (7 at 61 bits) is reduced in place every that many, which keeps it below
// MontReduce's q·2^64 bound and its residue unchanged. All inputs must be
// below q; the outputs are canonical and equal, bit for bit, to the strict
// per-digit MulThenAddVec composition on the canonical digits in any digit
// order.
func (s *SubRing) GatherMulAccumulate(d, b, a [][]uint64, perm []int, u, v []uint64) {
	var uhi, ulo, vhi, vlo [InnerProductTile]uint64
	br, q, qNeg := s.Barrett, s.Q, s.qNeg
	fold := mathutil.MontMaxTerms(q)
	for c0 := 0; c0 < len(u); c0 += InnerProductTile {
		n := min(InnerProductTile, len(u)-c0)
		uh, ul, vh, vl := uhi[:n], ulo[:n], vhi[:n], vlo[:n]
		for j := range d {
			bj, aj := b[j][c0:c0+n], a[j][c0:c0+n]
			if j > 0 && j%fold == 0 {
				for c := range uh {
					uh[c], ul[c] = 0, br.Reduce128(uh[c], ul[c])
					vh[c], vl[c] = 0, br.Reduce128(vh[c], vl[c])
				}
			}
			switch {
			case perm == nil && j == 0:
				for c, xc := range d[j][c0 : c0+n] {
					uh[c], ul[c] = bits.Mul64(xc, bj[c])
					vh[c], vl[c] = bits.Mul64(xc, aj[c])
				}
			case perm == nil:
				for c, xc := range d[j][c0 : c0+n] {
					uh[c], ul[c] = mathutil.MulAdd128(uh[c], ul[c], xc, bj[c])
					vh[c], vl[c] = mathutil.MulAdd128(vh[c], vl[c], xc, aj[c])
				}
			case j == 0:
				dj := d[j]
				for c, src := range perm[c0 : c0+n] {
					xc := dj[src]
					uh[c], ul[c] = bits.Mul64(xc, bj[c])
					vh[c], vl[c] = bits.Mul64(xc, aj[c])
				}
			default:
				dj := d[j]
				for c, src := range perm[c0 : c0+n] {
					xc := dj[src]
					uh[c], ul[c] = mathutil.MulAdd128(uh[c], ul[c], xc, bj[c])
					vh[c], vl[c] = mathutil.MulAdd128(vh[c], vl[c], xc, aj[c])
				}
			}
		}
		ut, vt := u[c0:c0+n], v[c0:c0+n]
		for c := range ut {
			ut[c] = mathutil.MontReduce(uh[c], ul[c], q, qNeg)
			vt[c] = mathutil.MontReduce(vh[c], vl[c], q, qNeg)
		}
	}
}
