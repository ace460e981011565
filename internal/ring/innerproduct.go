package ring

import "math/bits"

// InnerProductTile is the coefficient-blocking width of the key-switch
// inner-product kernel: the number of output words whose four 128-bit
// accumulator halves (8 words per coefficient) plus one gathered digit
// row stay in scratch while the β digit rows stream past. At 256 words
// that is 10 KiB — L1-resident next to the two key rows being read.
const InnerProductTile = 256

// innerProductFoldEvery bounds the number of 122-bit products accumulated
// into a 128-bit (hi, lo) pair before folding with a Barrett reduction —
// the guard rns.ExtTable.Extend uses, for the same reason: 64 products of
// two words < 2^61 sum to less than 2^128, and a folded accumulator is
// again below one product's worth. Key switching has β ≤ 64 digits in
// every parameter set, so the fold exists for correctness at arbitrary β.
const innerProductFoldEvery = 64

// GatherMulAccumulate is the fused key-switch inner product over one limb
// (Algorithm 3 line 3): with x_j[c] = d[j][perm[c]] (perm nil = identity)
// it writes
//
//	u[c] = Σ_j b[j][c]·x_j[c] mod q    and    v[c] = Σ_j a[j][c]·x_j[c] mod q
//
// for c in [0, len(u)). d, b and a hold this limb's row of the β ≥ 1 raised
// digits and of the two switching-key halves. Per tile of coefficients the
// digit words are gathered once and feed both products, the β products per
// output word are summed exactly in 128 bits and reduced once, and u and v
// are written, never read: the destination needs no zeroing and a rotated
// digit is never materialized. All inputs must be canonical (< q); the
// outputs are canonical and equal, bit for bit, to the strict per-digit
// MulThenAddVec composition in any digit order.
func (s *SubRing) GatherMulAccumulate(d, b, a [][]uint64, perm []int, u, v []uint64) {
	var uhi, ulo, vhi, vlo, gathered [InnerProductTile]uint64
	br := s.Barrett
	for c0 := 0; c0 < len(u); c0 += InnerProductTile {
		n := min(InnerProductTile, len(u)-c0)
		uh, ul, vh, vl := uhi[:n], ulo[:n], vhi[:n], vlo[:n]
		for j := range d {
			x := d[j][c0 : c0+n]
			if perm != nil {
				x = gathered[:n]
				dj := d[j]
				for c, src := range perm[c0 : c0+n] {
					x[c] = dj[src]
				}
			}
			bj, aj := b[j][c0:c0+n], a[j][c0:c0+n]
			if j == 0 {
				for c, xc := range x {
					uh[c], ul[c] = bits.Mul64(xc, bj[c])
					vh[c], vl[c] = bits.Mul64(xc, aj[c])
				}
				continue
			}
			if j%innerProductFoldEvery == 0 {
				for c := range uh {
					uh[c], ul[c] = 0, br.Reduce128(uh[c], ul[c])
					vh[c], vl[c] = 0, br.Reduce128(vh[c], vl[c])
				}
			}
			for c, xc := range x {
				ph, pl := bits.Mul64(xc, bj[c])
				lo, carry := bits.Add64(ul[c], pl, 0)
				uh[c], ul[c] = uh[c]+ph+carry, lo
				ph, pl = bits.Mul64(xc, aj[c])
				lo, carry = bits.Add64(vl[c], pl, 0)
				vh[c], vl[c] = vh[c]+ph+carry, lo
			}
		}
		ut, vt := u[c0:c0+n], v[c0:c0+n]
		for c := range ut {
			ut[c] = br.Reduce128(uh[c], ul[c])
			vt[c] = br.Reduce128(vh[c], vl[c])
		}
	}
}
