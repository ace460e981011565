package ring

import (
	"fmt"
	"math/bits"

	"repro/internal/mathutil"
)

// The key product and the second stage of a basis extension
// (rns.ExtTable.Extend) are both sums of word products closed by one
// Montgomery reduction. The scalar kernels sum exactly in 128 bits and
// close with mathutil.MontReduce. On amd64 CPUs with AVX-512 IFMA, a
// modulus q < 2^51 runs them eight words per ZMM vector
// (innerproduct_amd64.s) with the same outputs, bit for bit:
//
//   - Sum. Each product x·w, x, w < 2^51, is split by VPMADD52LUQ and
//     VPMADD52HUQ into its low and high 52 bits, added into two 64-bit
//     lanes lo and hi, so T = hi·2^52 + lo exactly. Each term adds less
//     than 2^52 to lo, so a sum of up to MaxLaneTerms = 4095 products on
//     a seed below 2^52 cannot wrap lo; longer sums run the scalar kernel.
//     Each high part is below 2^50, so hi < 4095·2^50 < 2^62.
//   - Close. The lanes compute MontReduce(T) = T·2^-64 mod q itself, so
//     every table, key and Montgomery-form digit keeps its 2^64 carrier.
//     Normalize (hi += lo >> 52 < 2^12, lo &= 2^52 − 1), then one 52-bit
//     REDC round with qn = −q⁻¹ mod 2^52: m = lo·qn mod 2^52 makes
//     lo + m·q a multiple of 2^52, and r1 = hi + ⌊(lo + m·q)/2^52⌋
//     ≡ T·2^-52 is below 2^62 + 2^12 + 2^51 + 1 < 2^64. A second round
//     on r1 = h·2^52 + l, h < 2^12, gives r2 = h + ⌊(l + m'·q)/2^52⌋
//     ≡ T·2^-104 below q + 2^12 < 2^52, a valid IFMA operand. One Shoup product by 2^40 mod q (companion
//     ⌊(2^40 mod q)·2^52/q⌋, quotient off by at most one since r2 < 2^52)
//     lands r2·2^40 ≡ T·2^-64 in [0, 2q), and one VPMINUQ fold in [0, q):
//     the canonical residue, which is all MontReduce can return.

// MaxLaneTerms is the longest sum of products the vector kernels close
// exactly: one more and the low lane could wrap.
const MaxLaneTerms = 4095

// VectorMont holds one modulus's constants for the vector kernels:
// q, −q⁻¹ mod 2^52, and 2^40 mod q with its 52-bit Shoup companion for
// the Montgomery close; 2^52 mod q with its companion and ⌊2^52/q⌋ for
// the pointwise kernels (pointwise.go).
type VectorMont struct {
	q, qn, r40, r40Shoup    uint64
	r52, r52Shoup, oneShoup uint64
}

// NewVectorMont returns the vector close for q and whether this CPU runs
// the vector kernels for q: AVX-512 IFMA is available (the probe the NTT
// kernels use) and q < 2^51. q must be odd.
func NewVectorMont(q uint64) (VectorMont, bool) {
	if !ifmaUsable(q) {
		return VectorMont{}, false
	}
	r40, r52 := uint64(1<<40)%q, uint64(1<<52)%q
	return VectorMont{
		q:        q,
		qn:       mathutil.MontQNeg(q) & (1<<52 - 1),
		r40:      r40,
		r40Shoup: mathutil.ShoupPrecomp(r40, q) >> 12,
		r52:      r52,
		r52Shoup: mathutil.ShoupPrecomp(r52, q) >> 12,
		oneShoup: mathutil.ShoupPrecomp(1, q) >> 12,
	}, true
}

// SeededSum writes
//
//	dst[c] = (seed[idx[c]] + Σ_i y[i][c]·w[i])·2^-64 mod q
//
// for c in [0, len(dst)), canonical, on the vector kernel: what a
// 128-bit sum closed by mathutil.MontReduce writes. It needs
// 1 ≤ len(w) = len(y) ≤ MaxLaneTerms, every y row and idx at least
// len(dst) long, y words below 2^51, w and seed words below q, and every
// idx[c] < len(seed); an index past the end reads the last seed word.
func (m *VectorMont) SeededSum(dst []uint64, y [][]uint64, w, seed, idx []uint64) {
	if len(w) == 0 || len(w) > MaxLaneTerms || len(y) != len(w) || len(seed) == 0 {
		panic(fmt.Sprintf("ring: SeededSum over %d rows and %d weights, %d seeds", len(y), len(w), len(seed)))
	}
	n := len(dst)
	_ = idx[:n]
	for _, row := range y {
		_ = row[:n]
	}
	seededSumIFMA(dst, y, w, seed, idx, uint64(len(seed)-1), m.q, m.qn, m.r40, m.r40Shoup)
}

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
// order. A sub-ring on the vector kernels (SubRing.vector) sums up to
// MaxLaneTerms digits on them; d, b and a rows must then be at least
// len(u) words, and a perm entry past that reads the row's last word.
func (s *SubRing) GatherMulAccumulate(d, b, a [][]uint64, perm []int, u, v []uint64) {
	if len(d) > 0 && len(d) <= MaxLaneTerms && s.vectorKernel() {
		n := len(u)
		_, _, _ = v[:n], b[:len(d)], a[:len(d)]
		for j := range d {
			_, _, _ = d[j][:n], b[j][:n], a[j][:n]
		}
		if perm != nil {
			_ = perm[:n]
		}
		m := &s.vmont
		gatherMulAccIFMA(d, b, a, perm, u, v, uint64(max(n, 1)-1), m.q, m.qn, m.r40, m.r40Shoup)
		return
	}
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
