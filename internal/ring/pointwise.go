package ring

import (
	"fmt"
	"math"

	"repro/internal/mathutil"
)

// The pointwise limb kernels: the per-word passes of the ciphertext
// product (Tensor, TensorSquare), of the P·x lift and the scaled
// multiply-adds (MulScalarThenAdd), of the ModDown and Rescale closers
// (SubThenMulScalar, ReduceThenAddConst), of the Montgomery form a ModUp
// digit and a transform diagonal are kept in (MForm), and of ciphertext
// addition and subtraction (Add, Sub). Each has a scalar Go
// body and, on a sub-ring with the vector kernels (SubRing.vector), an
// AVX-512 IFMA body (pointwise_amd64.s) that runs eight words per ZMM
// vector and writes the same canonical words:
//
//   - A product by a fixed w < q is the NTT's lazy Shoup product
//     (MULLAZY, companion ⌊w·2^52/q⌋ = wShoup >> 12) on an operand below
//     2^52, in [0, 2q), and one fold.
//   - A product a·b of two words below q < 2^51, or the sum of two, is
//     split by VPMADD52{L,H}UQ into T = hi·2^52 + lo < 2^103 (the sum's
//     lo is below 2^53, which the REDC round's carry absorbs). One
//     52-bit REDC round (REDC52) gives r = (T + m·q)/2^52 ≡ T·2^-52,
//     below T/2^52 + q < 2^52, a valid IFMA operand, and the lazy Shoup
//     product of r by 2^52 mod q lands T mod q in [0, 2q); one fold
//     finishes.
//   - x mod q for x < 2^52 is the lazy Shoup product by 1 (companion
//     ⌊2^52/q⌋) and one fold.
//
// Every scalar body returns the canonical residue, so the two paths agree
// word for word; internal/rns's TestKernelsMatch and FuzzKernels hold
// them to it. Every kernel writes len(out)
// words (d0 for the tensor, acc for MulScalarThenAdd) and reads as many
// from each input; out may alias an input read at the same index.

// Tensor writes the tensor product of (a0, a1) and (b0, b1) over one
// limb: d0 = a0·b0, d1 = a0·b1 + a1·b0 and d2 = a1·b1 mod q. Inputs must
// be below q; on the vector kernel d1's two products are summed in the
// lanes and reduced once.
func (s *SubRing) Tensor(d0, d1, d2, a0, a1, b0, b1 []uint64) {
	n := len(d0)
	d1, d2, a0, a1, b0, b1 = d1[:n], d2[:n], a0[:n], a1[:n], b0[:n], b1[:n]
	if s.vectorKernel() {
		m := &s.vmont
		tensorIFMA(d0, d1, d2, a0, a1, b0, b1, m.q, m.qn, m.r52, m.r52Shoup)
		return
	}
	br, q := s.Barrett, s.Q
	for j := range d0 {
		d0[j] = br.MulMod(a0[j], b0[j])
		d1[j] = mathutil.AddMod(br.MulMod(a0[j], b1[j]), br.MulMod(a1[j], b0[j]), q)
		d2[j] = br.MulMod(a1[j], b1[j])
	}
}

// TensorSquare is Tensor of (a0, a1) with itself: d0 = a0², d1 = 2·a0·a1
// and d2 = a1² mod q, one cross product instead of two.
func (s *SubRing) TensorSquare(d0, d1, d2, a0, a1 []uint64) {
	n := len(d0)
	d1, d2, a0, a1 = d1[:n], d2[:n], a0[:n], a1[:n]
	if s.vectorKernel() {
		m := &s.vmont
		tensorSquareIFMA(d0, d1, d2, a0, a1, m.q, m.qn, m.r52, m.r52Shoup)
		return
	}
	br, q := s.Barrett, s.Q
	for j := range d0 {
		cross := br.MulMod(a0[j], a1[j])
		d0[j], d1[j], d2[j] = br.MulMod(a0[j], a0[j]), mathutil.AddMod(cross, cross, q), br.MulMod(a1[j], a1[j])
	}
}

// MulScalarThenAdd sets acc[j] += w·x[perm[j]] mod q over one limb
// (perm nil: the identity), wShoup being w's Shoup companion. x and acc
// words must be below q and w < q; every perm entry indexes x, and on the
// vector kernel one past the end reads x's last word, as
// GatherMulAccumulate's gather does.
func (s *SubRing) MulScalarThenAdd(x []uint64, perm []int, w, wShoup uint64, acc []uint64) {
	n := len(acc)
	if perm == nil {
		x = x[:n]
	} else if perm = perm[:n]; n > 0 {
		_ = x[0]
	}
	if s.vectorKernel() {
		mulScalarAddIFMA(acc, x, perm, uint64(max(len(x), 1)-1), w, wShoup>>12, s.Q)
		return
	}
	q := s.Q
	if perm == nil {
		for j, xj := range x {
			acc[j] = mathutil.AddMod(acc[j], mathutil.MulModShoup(xj, w, wShoup, q), q)
		}
		return
	}
	for j, k := range perm {
		acc[j] = mathutil.AddMod(acc[j], mathutil.MulModShoup(x[k], w, wShoup, q), q)
	}
}

// SubThenMulScalar sets out[j] = (a[j] − b[j])·w mod q over one limb, w
// with its Shoup companion wShoup: the last pass of ModDown and Rescale.
// a and b words must be below q and w < q.
func (s *SubRing) SubThenMulScalar(a, b []uint64, w, wShoup uint64, out []uint64) {
	n := len(out)
	a, b = a[:n], b[:n]
	if s.vectorKernel() {
		subMulIFMA(out, a, b, w, wShoup>>12, s.Q)
		return
	}
	q := s.Q
	for j := range out {
		out[j] = mathutil.MulModShoup(mathutil.SubMod(a[j], b[j], q), w, wShoup, q)
	}
}

// ReduceThenAddConst sets out[j] = (x[j] mod q + c) mod q over one limb,
// for x words below xBound and c < q: the rounding offsets of ModDown and
// Rescale, and the reduction of a limb carried over from another modulus.
// The vector kernel needs xBound ≤ 2^52; a larger bound runs the scalar
// body.
func (s *SubRing) ReduceThenAddConst(x []uint64, xBound, c uint64, out []uint64) {
	x = x[:len(out)]
	if xBound <= 1<<52 && s.vectorKernel() {
		reduceAddIFMA(out, x, c, s.vmont.oneShoup, s.Q)
		return
	}
	br, q := s.Barrett, s.Q
	for j := range out {
		out[j] = mathutil.AddMod(br.Reduce(x[j]), c, q)
	}
}

// MForm sets out[j] = a[j]·R mod q with R = 2^64 mod q over a single limb:
// the Montgomery form GatherMulAccumulate takes its d operand in. a must
// be canonical; out may alias a.
func (s *SubRing) MForm(a, out []uint64) {
	a = a[:len(out)]
	if s.vectorKernel() {
		mulScalarIFMA(out, a, s.r, s.rShoup>>12, s.Q)
		return
	}
	r, rs, q := s.r, s.rShoup, s.Q
	for j := range out {
		out[j] = mathutil.MulModShoup(a[j], r, rs, q)
	}
}

// Add sets out[j] = a[j] + b[j] mod q over one limb. a and b words must be
// below q; out may alias either.
func (s *SubRing) Add(a, b, out []uint64) {
	n := len(out)
	a, b = a[:n], b[:n]
	if s.vectorKernel() {
		addIFMA(out, a, b, s.Q)
		return
	}
	q := s.Q
	for j := range out {
		out[j] = mathutil.AddMod(a[j], b[j], q)
	}
}

// Sub sets out[j] = a[j] − b[j] mod q over one limb. a and b words must be
// below q; out may alias either.
func (s *SubRing) Sub(a, b, out []uint64) {
	n := len(out)
	a, b = a[:n], b[:n]
	if s.vectorKernel() {
		subIFMA(out, a, b, s.Q)
		return
	}
	q := s.Q
	for j := range out {
		out[j] = mathutil.SubMod(a[j], b[j], q)
	}
}

// VectorEstimate holds the per-row constants of a basis extension's first
// stage on the vector kernel: for input limb i, q_i, 2^52 − q_i, the
// multiplier w_i with its 52-bit Shoup companion, and the bits of the
// float64 1/q_i, five words a row.
type VectorEstimate struct {
	rows []uint64
}

// NewVectorEstimate returns the first-stage constants for multipliers
// w[i] < q[i] with 64-bit Shoup companions wShoup[i] and float inverses
// inv[i], and whether this CPU runs the vector stage for every q[i]
// (ifmaUsable: AVX-512 IFMA and q[i] < 2^51).
func NewVectorEstimate(q, w, wShoup []uint64, inv []float64) (VectorEstimate, bool) {
	rows := make([]uint64, 0, 5*len(q))
	for i, qi := range q {
		if !ifmaUsable(qi) {
			return VectorEstimate{}, false
		}
		rows = append(rows, qi, 1<<52-qi, w[i], wShoup[i]>>12, math.Float64bits(inv[i]))
	}
	return VectorEstimate{rows: rows}, true
}

// ScaleAndEstimate is the first stage of a basis extension over
// coefficients [off, off+len(v)) of src, on the vector kernel: for each
// input limb i in ascending order
//
//	y[i][c−off] = src[i][c]·w_i mod q_i    (canonical)
//	vf[c]      += float64(y)·(1/q_i)       (VMULPD then VADDPD, never fused)
//
// and v[c−off] = ⌊vf[c]⌋. It writes the words and the estimate the scalar
// loop of rns.ExtTable writes, bit for bit: the conversion of y < 2^51 is
// exact, and each product and sum rounds once, in the same order. src
// words must be below q_i; y and src need one row per input limb.
func (e *VectorEstimate) ScaleAndEstimate(src [][]uint64, off int, y [][]uint64, v []uint64) {
	l := len(e.rows) / 5
	if l == 0 || len(src) != l || len(y) != l {
		panic(fmt.Sprintf("ring: ScaleAndEstimate over %d source and %d output rows, %d moduli", len(src), len(y), l))
	}
	n := len(v)
	for i := range src {
		_, _ = src[i][off:off+n], y[i][:n]
	}
	scaleEstimateIFMA(src, off, y, v, e.rows)
}
