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

// InnerProductTile is the coefficient-blocking width of the scalar key
// product: the number of output words whose four 128-bit accumulator
// halves (4 words per coefficient) stay in scratch while the β digit rows
// stream past, split evenly between the lanes. At 256 words that is
// 8 KiB — L1-resident next to the two key rows being read.
const InnerProductTile = 256

// MaxLanes is the most products one call of GatherMulAccumulate carries:
// each b and a word it loads is multiplied into up to this many lanes'
// accumulators, so a key pass shared by K products reads the key once.
const MaxLanes = 4

// GatherMulAccumulate is the fused key-switch inner product over one limb
// (Algorithm 3 line 3) for K = len(u) products that share the key rows b
// and a, 1 ≤ K ≤ MaxLanes: with x_{j,k}[c] = d[j·K+k][perm[c]] (perm nil =
// identity), lane k's digit j, it writes
//
//	u[k][c] = Σ_j b[j][c]·x_{j,k}[c]·R⁻¹ mod q    and    v[k][c] = Σ_j a[j][c]·x_{j,k}[c]·R⁻¹ mod q
//
// for c in [0, n), n = len(u[0]), with R = 2^64 mod q. b and a hold this
// limb's row of the β ≥ 0 switching-key halves, d the K lanes' rows of
// their β raised digits, digit-major. The one rule: the d operand is in
// Montgomery form (R·x, see MForm), b and a are canonical, so u and v are
// the canonical Σ b·x and Σ a·x. Per tile of coefficients each key word
// is loaded once and feeds every lane, each digit word is gathered once,
// in the multiply loop, and feeds both products, the β products per output
// word are summed exactly in 128 bits and closed by one Montgomery
// reduction (mathutil.MontReduce), and u and v are written, never read:
// the destinations need no zeroing and a rotated digit is never
// materialized. A sum longer than MontMaxTerms(q) products (7 at 61 bits)
// is reduced in place every that many, which keeps it below MontReduce's
// q·2^64 bound and its residue unchanged. All inputs must be below q; the
// outputs are canonical and equal, bit for bit, to the strict per-digit
// MulThenAddVec composition on the canonical digits in any digit order,
// so lane k's words are those of a one-lane call on its own digits. A
// sub-ring on the vector kernels (SubRing.vector) sums up to MaxLaneTerms
// digits on them; every d, b, a, u and v row must then be at least n
// words, and a perm entry past that reads the row's last word.
func (s *SubRing) GatherMulAccumulate(d, b, a [][]uint64, perm []int, u, v [][]uint64) {
	lanes, beta := len(u), len(b)
	if lanes < 1 || lanes > MaxLanes || len(v) != lanes || len(a) != beta || len(d) != lanes*beta {
		panic(fmt.Sprintf("ring: GatherMulAccumulate over %d lanes (%d v rows) of %d digit rows, %d b and %d a rows", lanes, len(v), len(d), beta, len(a)))
	}
	n := len(u[0])
	if beta > 0 && beta <= MaxLaneTerms && s.vectorKernel() {
		for k := range u {
			_, _ = u[k][:n], v[k][:n]
		}
		for j := range b {
			_, _ = b[j][:n], a[j][:n]
		}
		for _, row := range d {
			_ = row[:n]
		}
		if perm != nil {
			_ = perm[:n]
		}
		m := &s.vmont
		gatherMulAccIFMA(d, b, a, perm, u, v, uint64(n), uint64(max(n, 1)-1), m.q, m.qn, m.r40, m.r40Shoup)
		return
	}
	var uhi, ulo, vhi, vlo [InnerProductTile]uint64
	br, q, qNeg := s.Barrett, s.Q, s.qNeg
	fold := mathutil.MontMaxTerms(q)
	tile := InnerProductTile / lanes
	for c0 := 0; c0 < n; c0 += tile {
		m := min(tile, n-c0)
		for j := range b {
			bj, aj := b[j][c0:c0+m], a[j][c0:c0+m]
			for k := 0; k < lanes; k++ {
				t := k * tile
				uh, ul, vh, vl := uhi[t:t+m], ulo[t:t+m], vhi[t:t+m], vlo[t:t+m]
				dj := d[j*lanes+k]
				if j > 0 && j%fold == 0 {
					for c := range uh {
						uh[c], ul[c] = 0, br.Reduce128(uh[c], ul[c])
						vh[c], vl[c] = 0, br.Reduce128(vh[c], vl[c])
					}
				}
				switch {
				case perm == nil && j == 0:
					for c, xc := range dj[c0 : c0+m] {
						uh[c], ul[c] = bits.Mul64(xc, bj[c])
						vh[c], vl[c] = bits.Mul64(xc, aj[c])
					}
				case perm == nil:
					for c, xc := range dj[c0 : c0+m] {
						uh[c], ul[c] = mathutil.MulAdd128(uh[c], ul[c], xc, bj[c])
						vh[c], vl[c] = mathutil.MulAdd128(vh[c], vl[c], xc, aj[c])
					}
				case j == 0:
					for c, src := range perm[c0 : c0+m] {
						xc := dj[src]
						uh[c], ul[c] = bits.Mul64(xc, bj[c])
						vh[c], vl[c] = bits.Mul64(xc, aj[c])
					}
				default:
					for c, src := range perm[c0 : c0+m] {
						xc := dj[src]
						uh[c], ul[c] = mathutil.MulAdd128(uh[c], ul[c], xc, bj[c])
						vh[c], vl[c] = mathutil.MulAdd128(vh[c], vl[c], xc, aj[c])
					}
				}
			}
		}
		for k := 0; k < lanes; k++ {
			t := k * tile
			uk, vk := u[k][c0:c0+m], v[k][c0:c0+m]
			for c := range uk {
				uk[c] = mathutil.MontReduce(uhi[t+c], ulo[t+c], q, qNeg)
				vk[c] = mathutil.MontReduce(vhi[t+c], vlo[t+c], q, qNeg)
			}
		}
	}
}
