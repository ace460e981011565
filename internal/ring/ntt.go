package ring

import (
	"math/bits"

	"repro/internal/mathutil"
)

// Cache-blocked fused NTT kernels.
//
// The original kernels (retained in ntt_reference.go as the golden
// oracles) make one full pass over the limb per butterfly stage plus one
// more for the exact-reduction epilogue: log2(N)+1 read+write sweeps. At
// bootstrap scale a limb no longer fits the inner cache levels, so every
// sweep is DRAM traffic — the NTT becomes the dominant memory mover of
// the paper's §4 bytes-per-kernel accounting once basis extension is
// blocked. The rewrite restructures the schedule without changing a
// single butterfly:
//
//   - View the limb as an R×T matrix (T = NTTTile words per row,
//     R = N/T rows). The first log2(R) forward stages have stride ≥ T, a
//     multiple of T, so every butterfly pairs two elements of the same
//     column: columns are closed under those stages. Phase A runs all
//     log2(R) stages on one block of bw columns at a time, in place at
//     row stride T: the block's R segments of bw words (32 KiB in all
//     up to R = 8, R·4 KiB above; see nttMinBlockCols) stay
//     cache-resident across its stages, so each is read and written
//     once, and no limb word is copied to scratch and back.
//   - The remaining log2(T) stages have stride < T and never cross a row
//     boundary. Phase B sweeps the rows in order, running all remaining
//     stages on one cache-resident row before touching the next. Within a
//     row, strided stages run as 8-wide unrolled radix-2 sweeps over
//     bounds-check-free subslice pairs (see nttRow for why this beats
//     wider in-register fusion), and the stages whose butterflies are
//     contiguous (the last two forward, the first two inverse) fuse
//     radix-4 style: four coefficients make one load/store round trip
//     through two stages.
//   - The epilogues are folded into the final stores: the forward
//     exact-reduction sweep into the last fused row stage, the inverse
//     N^{-1} sweep into the last column stage. The inverse transform
//     mirrors the forward one with the phases swapped (rows first,
//     columns last), and its first stage may read a separate source
//     (INTTTo), so a caller that keeps its evaluation-form limb copies
//     nothing before the transform.
//
// Every butterfly performs exactly the reference arithmetic (same lazy
// <4q bound, same conditional folds, same Shoup products) in a valid
// reorder of independent butterflies, so outputs are bit-identical to the
// oracles — enforced by TestNTTMatchesReference across all moduli, sizes
// and worker counts. Limbs of up to NTTTile words skip phase A entirely
// and run as a single fused row: one read+write pass over the data,
// against the reference schedule's log2(N)+1 passes.
//
// The butterflies themselves come in two kernels. The scalar Go ones
// below run everywhere; on amd64 CPUs with AVX-512 IFMA, every sub-ring
// with q < 2^51 runs vector kernels (ntt_amd64.go, ntt_amd64.s) over the
// same schedule: each transform reads SubRing.vectorKernel once and its
// row and column steps dispatch on that, and
// the block loops, counters and trace calls here are shared, so the
// traffic accounting does not depend on the kernel. Both store
// canonical residues, so both match the oracles bit for bit.

const (
	// NTTTile is the row length, in 8-byte coefficients, of the blocked
	// kernels' matrix view: 2^11 words = 16 KiB per row, small enough
	// that a row plus its twiddle slice stays resident in a 32 KiB L1
	// while phase B runs every remaining stage on it. Limbs with at most
	// this many coefficients are transformed in a single fused pass.
	NTTTile = 1 << 11

	// nttBlockWords sizes phase A's column blocks: 2^12 words = 32 KiB,
	// giving R×(nttBlockWords/R)-word blocks that fit L1 alongside the
	// twiddles up to R = 8 rows (N = 2^14).
	nttBlockWords = 1 << 12

	// nttMinBlockCols floors the column-block width at 512 words (4 KiB),
	// so each row segment of a block covers every set of a 32 KiB 8-way
	// L1 once. The rows are NTTTile words apart, a multiple of the L1
	// way size, so narrower segments would all land on the same few
	// sets: at R = 16 and 32 rows of 256 and 128 words each set would
	// hold 16 or 32 lines and thrash. With the floor a block above 8 rows
	// is R·4 KiB (64 KiB at N = 2^15, 128 KiB at 2^16) and its column
	// stages run out of L2, which measured no slower than copying the
	// block to contiguous scratch (docs/PERF.md "Zero-copy limb
	// pipeline").
	nttMinBlockCols = 512
)

// NTT transforms the limb p (natural coefficient order) into evaluation
// form (bit-reversed order) in place, using the negacyclic Cooley–Tukey
// algorithm with the 2N-th root of unity merged into the twiddles.
//
// The butterflies use Harvey's lazy reduction: values stay below 4q
// through the passes (2q after the conditional fold, plus a < 2q Shoup
// product), with the exact reduction fused into the final stage's stores.
// Moduli are capped at 61 bits (mathutil.MaxModulusBits) so 4q never
// overflows. The ring.ntt.bytes counter reports the traffic the kernel
// actually moves: 16·N bytes for the single-phase path, 16·N per phase
// (32·N total) for the blocked path — each element is read and written
// exactly once per phase, never re-counted within one.
func (s *SubRing) NTT(p []uint64) {
	s.rec.Add("ring.ntt", 1)
	n := s.N
	p = p[:n]
	if n <= NTTTile {
		s.rec.Add("ring.ntt.bytes", 16*uint64(n))
		s.tr.Read(p)
		s.nttRow(p, 1, s.vectorKernel())
		s.tr.Write(p)
		return
	}
	s.nttBlocked(p, s.vectorKernel())
}

// nttBlocked is the two-phase forward kernel for n > NTTTile, on the
// vector kernels when vec is set.
func (s *SubRing) nttBlocked(p []uint64, vec bool) {
	n := len(p)
	rows := n / NTTTile
	bw := nttBlockWidth(rows)
	var traffic uint64

	// Phase A: the first log2(rows) stages, one column block at a time,
	// in place.
	for c0 := 0; c0 < NTTTile; c0 += bw {
		for r := 0; r < rows; r++ {
			s.tr.Read(p[r*NTTTile+c0 : r*NTTTile+c0+bw])
		}
		if vec {
			s.nttColumnsIFMA(p, c0, bw, rows)
		} else {
			s.nttColumns(p, c0, bw, rows)
		}
		for r := 0; r < rows; r++ {
			s.tr.Write(p[r*NTTTile+c0 : r*NTTTile+c0+bw])
		}
		traffic += 16 * uint64(rows*bw)
	}

	// Phase B: the remaining log2(NTTTile) stages, row-local. Row r of
	// the matrix view continues at twiddle base rows+r (stage m = rows·lm
	// block i = r·lm+li ⇒ index m+i = lm·(rows+r)+li), with the
	// exact-reduction epilogue fused into the final stores.
	for r := 0; r < rows; r++ {
		row := p[r*NTTTile : (r+1)*NTTTile]
		s.tr.Read(row)
		s.nttRow(row, rows+r, vec)
		s.tr.Write(row)
		traffic += 16 * NTTTile
	}
	s.rec.Add("ring.ntt.bytes", traffic)
}

// nttBlockWidth is the column-block width of a rows-row matrix view:
// nttBlockWords/rows words, at least nttMinBlockCols.
func nttBlockWidth(rows int) int {
	return max(nttBlockWords/rows, nttMinBlockCols)
}

// nttColumns runs phase A's stages in place on columns [c0, c0+bw) of
// the rows×NTTTile matrix p. Stage m pairs matrix rows (r, r+tau) of
// the same column, tau = rows/(2m); the twiddle twiddle[m+i] with
// i = r/(2·tau) is shared by every column in the block.
func (s *SubRing) nttColumns(p []uint64, c0, bw, rows int) {
	q := s.Q
	twoQ := 2 * q
	tw, tws := s.twiddle, s.twiddleShoup
	tau := rows
	for m := 1; m < rows; m <<= 1 {
		tau >>= 1
		for i := 0; i < m; i++ {
			w, ws := tw[m+i], tws[m+i]
			r1 := 2 * i * tau
			for r := r1; r < r1+tau; r++ {
				x := r*NTTTile + c0
				y := x + tau*NTTTile
				xr := p[x : x+bw]
				yr := p[y : y+bw]
				yr = yr[:len(xr)] // bounds-check elimination for yr[b]
				for b := range xr {
					u := xr[b]
					if u >= twoQ {
						u -= twoQ
					}
					v := lazyMulShoup(yr[b], w, ws, q)
					xr[b] = u + v
					yr[b] = u + twoQ - v
				}
			}
		}
	}
}

// nttRow runs the last log2(len(x)) forward stages on the contiguous,
// cache-resident row x. base positions the row in the twiddle table: the
// stage-lm block-li butterfly uses twiddle[lm·base+li], which reduces to
// the reference indexing m+i for a whole small limb (base 1) and to the
// phase-B continuation for matrix row r of R (base R+r).
//
// The strided stages run as radix-2 sweeps over subslice pairs: the pair
// form keeps the live set (two strand slices, one twiddle pair, the
// modulus bounds) inside the register file — Shoup butterflies pin
// RAX/RDX, so wider fusion here spills to the stack and loses more to
// reload traffic than it saves in L1 hits, since the whole row is
// already cache-resident. The subslices carry the bounds-check
// elimination. The final two stages operate on contiguous quads, where
// radix-4 fusion needs only one base pointer: those stages fuse, and the
// exact-reduction epilogue (<4q → <q) rides their stores, eliminating
// the reference's separate reduction sweep. len(x) must be a power of
// two ≥ 16. With vec set it runs the vector kernels instead.
func (s *SubRing) nttRow(x []uint64, base int, vec bool) {
	if vec {
		s.nttRowIFMA(x, base)
		return
	}
	q := s.Q
	twoQ := 2 * q
	tw, tws := s.twiddle, s.twiddleShoup
	n := len(x)

	// Strided stages: stride lt = n/2 … 4, radix-2, register-clean.
	// The stage's twiddle window tw[lm·base : lm·base+lm] turns the
	// twiddle loads into check-free li-indexing, and the 8-wide unrolled
	// body (strides ≥ 8) amortizes the loop-carried reloads the Shoup
	// butterfly forces — MULQ pins RAX/RDX, so per-iteration state
	// otherwise round-trips through the stack every butterfly.
	lm := 1
	for lt := n >> 1; lt >= 8; lt >>= 1 {
		tw1 := tw[lm*base : lm*base+lm]
		tws1 := tws[lm*base : lm*base+lm]
		tws1 = tws1[:len(tw1)]
		for li := range tw1 {
			w, ws := tw1[li], tws1[li]
			j1 := 2 * li * lt
			xx := x[j1 : j1+lt]
			yy := x[j1+lt : j1+2*lt]
			yy = yy[:len(xx)]
			for k := 0; k+8 <= len(xx); k += 8 {
				px := (*[8]uint64)(xx[k:])
				py := (*[8]uint64)(yy[k:])
				nttButterfly8(px, py, w, ws, q, twoQ)
			}
		}
		lm <<= 1
	}

	// Stride-4 stage: one radix-2 sweep below the unroll width.
	{
		tw1 := tw[lm*base : lm*base+lm]
		tws1 := tws[lm*base : lm*base+lm]
		tws1 = tws1[:len(tw1)]
		for li := range tw1 {
			w, ws := tw1[li], tws1[li]
			j1 := li << 3
			xq := x[j1 : j1+8] // constant length: accesses check-free
			for k := 0; k < 4; k++ {
				u := xq[k]
				if u >= twoQ {
					u -= twoQ
				}
				v := lazyMulShoup(xq[k+4], w, ws, q)
				xq[k] = u + v
				xq[k+4] = u + twoQ - v
			}
		}
		lm <<= 1
	}

	// Final fused pair (lm = n/4): strides 2 and 1, so the quads are
	// contiguous; the exact reduction (<4q → <q) rides the stores.
	tw1 := tw[lm*base : lm*base+lm]
	tws1 := tws[lm*base : lm*base+lm]
	tw2 := tw[2*lm*base : 2*lm*base+2*lm]
	tws2 := tws[2*lm*base : 2*lm*base+2*lm]
	tws1 = tws1[:len(tw1)]
	tw2 = tw2[:2*len(tw1)]
	tws2 = tws2[:2*len(tw1)]
	for li := range tw1 {
		w1, w1s := tw1[li], tws1[li]
		w2, w2s := tw2[2*li], tws2[2*li]
		w3, w3s := tw2[2*li+1], tws2[2*li+1]
		j := li << 2
		xq := x[j : j+4] // constant length: quad accesses check-free
		a, b, c, d := xq[0], xq[1], xq[2], xq[3]
		if a >= twoQ {
			a -= twoQ
		}
		v := lazyMulShoup(c, w1, w1s, q)
		a, c = a+v, a+twoQ-v
		if b >= twoQ {
			b -= twoQ
		}
		v = lazyMulShoup(d, w1, w1s, q)
		b, d = b+v, b+twoQ-v
		if a >= twoQ {
			a -= twoQ
		}
		v = lazyMulShoup(b, w2, w2s, q)
		a, b = a+v, a+twoQ-v
		if c >= twoQ {
			c -= twoQ
		}
		v = lazyMulShoup(d, w3, w3s, q)
		c, d = c+v, c+twoQ-v
		xq[0] = lazyReduce(a, q)
		xq[1] = lazyReduce(b, q)
		xq[2] = lazyReduce(c, q)
		xq[3] = lazyReduce(d, q)
	}
}

// lazyMulShoup returns (x·w) mod q lazily in [0, 2q), valid for any
// x < 2^62 with w < q (the quotient estimate errs by at most one).
func lazyMulShoup(x, w, wShoup, q uint64) uint64 {
	qhat, _ := bits.Mul64(x, wShoup)
	return x*w - qhat*q
}

// nttButterfly8 applies one shared-twiddle forward butterfly to the
// eight lanes of (px, py): the 8-wide unrolled body of the strided
// radix-2 stages. A fixed-size non-inlined body gives every lane
// check-free constant-offset addressing and lets the eight independent
// butterfly chains issue back to back, with the loop-carried reload
// cluster paid once per eight butterflies instead of per butterfly.
func nttButterfly8(px, py *[8]uint64, w, ws, q, twoQ uint64) {
	u0, u1, u2, u3 := px[0], px[1], px[2], px[3]
	if u0 >= twoQ {
		u0 -= twoQ
	}
	if u1 >= twoQ {
		u1 -= twoQ
	}
	if u2 >= twoQ {
		u2 -= twoQ
	}
	if u3 >= twoQ {
		u3 -= twoQ
	}
	v0 := lazyMulShoup(py[0], w, ws, q)
	v1 := lazyMulShoup(py[1], w, ws, q)
	v2 := lazyMulShoup(py[2], w, ws, q)
	v3 := lazyMulShoup(py[3], w, ws, q)
	px[0], py[0] = u0+v0, u0+twoQ-v0
	px[1], py[1] = u1+v1, u1+twoQ-v1
	px[2], py[2] = u2+v2, u2+twoQ-v2
	px[3], py[3] = u3+v3, u3+twoQ-v3
	u0, u1, u2, u3 = px[4], px[5], px[6], px[7]
	if u0 >= twoQ {
		u0 -= twoQ
	}
	if u1 >= twoQ {
		u1 -= twoQ
	}
	if u2 >= twoQ {
		u2 -= twoQ
	}
	if u3 >= twoQ {
		u3 -= twoQ
	}
	v0 = lazyMulShoup(py[4], w, ws, q)
	v1 = lazyMulShoup(py[5], w, ws, q)
	v2 = lazyMulShoup(py[6], w, ws, q)
	v3 = lazyMulShoup(py[7], w, ws, q)
	px[4], py[4] = u0+v0, u0+twoQ-v0
	px[5], py[5] = u1+v1, u1+twoQ-v1
	px[6], py[6] = u2+v2, u2+twoQ-v2
	px[7], py[7] = u3+v3, u3+twoQ-v3
}

// INTT transforms the limb p from evaluation form (bit-reversed order) back
// to natural coefficient order in place, using the Gentleman–Sande
// algorithm, folding in the final multiplication by N^{-1}. It is
// INTTTo(p, p).
func (s *SubRing) INTT(p []uint64) {
	s.INTTTo(p, p)
}

// INTTTo writes the inverse transform of src into dst: its first stage
// reads src and writes dst, every later stage runs on dst, so src keeps
// its words and nothing is copied. dst and src are the same slice or do
// not overlap.
//
// Lazy reduction mirrors NTT: sums stay below 4q (folded to < 2q before
// each butterfly); the closing N^{-1} sweep performs the exact reduction,
// fused into the final stores. The blocked path runs the phases of the
// forward kernel in reverse — row-local stages first, column stages last
// — and reports measured per-phase traffic in ring.intt.bytes exactly
// like NTT does in ring.ntt.bytes. The memory trace records the transform
// on dst, as INTT's: a caller that would have copied src into dst traces
// that copy's read and write itself.
func (s *SubRing) INTTTo(dst, src []uint64) {
	s.rec.Add("ring.intt", 1)
	n := s.N
	dst, src = dst[:n], src[:n]
	if n <= NTTTile {
		s.rec.Add("ring.intt.bytes", 16*uint64(n))
		s.tr.Read(dst)
		s.inttRow(dst, src, 1, true, s.vectorKernel())
		s.tr.Write(dst)
		return
	}
	s.inttBlocked(dst, src, s.vectorKernel())
}

// inttBlocked is the two-phase inverse kernel for n > NTTTile, reading
// src in phase 1 and working in place on p after it, on the vector
// kernels when vec is set.
func (s *SubRing) inttBlocked(p, src []uint64, vec bool) {
	n := len(p)
	rows := n / NTTTile
	bw := nttBlockWidth(rows)
	var traffic uint64

	// Phase 1: the first log2(NTTTile) inverse stages (stride < tile),
	// row-local with fused radix-4 pairs; the N^{-1} epilogue waits for
	// the last column stage.
	for r := 0; r < rows; r++ {
		row := p[r*NTTTile : (r+1)*NTTTile]
		s.tr.Read(row)
		s.inttRow(row, src[r*NTTTile:(r+1)*NTTTile], rows+r, false, vec)
		s.tr.Write(row)
		traffic += 16 * NTTTile
	}

	// Phase 2: the remaining log2(rows) stages pair matrix rows of the
	// same column, mirroring the forward phase A in reverse, one column
	// block at a time in place; the N^{-1} exact-reduction epilogue is
	// fused into the last column stage.
	for c0 := 0; c0 < NTTTile; c0 += bw {
		for r := 0; r < rows; r++ {
			s.tr.Read(p[r*NTTTile+c0 : r*NTTTile+c0+bw])
		}
		if vec {
			s.inttColumnsIFMA(p, c0, bw, rows)
		} else {
			s.inttColumns(p, c0, bw, rows)
		}
		for r := 0; r < rows; r++ {
			s.tr.Write(p[r*NTTTile+c0 : r*NTTTile+c0+bw])
		}
		traffic += 16 * uint64(rows*bw)
	}
	s.rec.Add("ring.intt.bytes", traffic)
}

// inttColumns runs the blocked inverse's column stages in place on
// columns [c0, c0+bw) of p, mirroring nttColumns in reverse. The last
// stage (pairing rows rows/2 apart, twiddle invTwiddle[1]) carries the N^{-1}
// epilogue as inttRow's does: its sum is scaled by N^{-1} and its
// difference by nInvW, both exact.
func (s *SubRing) inttColumns(p []uint64, c0, bw, rows int) {
	q := s.Q
	twoQ := 2 * q
	fourQ := 4 * q
	itw, itws := s.invTwiddle, s.invTwiddleShoup
	tau := 1
	for m := rows; m > 2; m >>= 1 {
		h := m >> 1
		r1 := 0
		for i := 0; i < h; i++ {
			w, ws := itw[h+i], itws[h+i]
			for r := r1; r < r1+tau; r++ {
				x := r*NTTTile + c0
				y := x + tau*NTTTile
				xr := p[x : x+bw]
				yr := p[y : y+bw]
				yr = yr[:len(xr)] // bounds-check elimination for yr[b]
				for b := range xr {
					u, v := xr[b], yr[b]
					sum := u + v
					if sum >= fourQ {
						sum -= fourQ
					}
					if sum >= twoQ {
						sum -= twoQ
					}
					xr[b] = sum
					yr[b] = lazyMulShoup(u+fourQ-v, w, ws, q)
				}
			}
			r1 += tau << 1
		}
		tau <<= 1
	}
	for r := 0; r < tau; r++ {
		x := r*NTTTile + c0
		y := x + tau*NTTTile
		s.inttLast(p[x:x+bw], p[y:y+bw])
	}
}

// inttRow runs the first log2(len(x)) inverse stages on the contiguous
// row x, the mirror of nttRow: the stage-lh block-li butterfly uses
// invTwiddle[lh·base+li] (base 1 for a whole small limb, R+r for matrix
// row r of R). The first two stages (strides 1 and 2) operate on
// contiguous quads and fuse radix-4 style, reading src and writing x;
// the remaining strided stages run on x as register-clean radix-2
// sweeps, mirroring nttRow's layout rationale. When epilogue is set the
// N^{-1} exact-reduction sweep rides the final stage's stores. len(x)
// must be a power of two ≥ 16, and src is x or does not overlap it.
// With vec set it runs the vector kernels instead.
func (s *SubRing) inttRow(x, src []uint64, base int, epilogue, vec bool) {
	if vec {
		s.inttRowIFMA(x, src, base, epilogue)
		return
	}
	q := s.Q
	twoQ := 2 * q
	fourQ := 4 * q
	itw, itws := s.invTwiddle, s.invTwiddleShoup
	n := len(x)

	// First fused pair (strides 1, 2): quads {j, j+1, j+2, j+3} run
	// butterflies (j, j+1), (j+2, j+3), then (j, j+2), (j+1, j+3), all in
	// registers. Twiddle windows as in nttRow: stage-lh indices
	// lh·base+2li+{0,1} and (lh/2)·base+li become 2li+{0,1} / li.
	lh := n >> 1
	half := lh >> 1
	it3 := itw[half*base : half*base+half]
	it3s := itws[half*base : half*base+half]
	it1 := itw[lh*base : lh*base+lh]
	it1s := itws[lh*base : lh*base+lh]
	it3s = it3s[:len(it3)]
	it1 = it1[:2*len(it3)]
	it1s = it1s[:2*len(it3)]
	src = src[:n]
	for li := range it3 {
		w1, w1s := it1[2*li], it1s[2*li]
		w2, w2s := it1[2*li+1], it1s[2*li+1]
		w3, w3s := it3[li], it3s[li]
		j := li << 2
		sq := src[j : j+4] // constant length: quad accesses check-free
		a, b, c, d := sq[0], sq[1], sq[2], sq[3]
		s1 := a + b
		if s1 >= fourQ {
			s1 -= fourQ
		}
		if s1 >= twoQ {
			s1 -= twoQ
		}
		t1 := lazyMulShoup(a+fourQ-b, w1, w1s, q)
		s2 := c + d
		if s2 >= fourQ {
			s2 -= fourQ
		}
		if s2 >= twoQ {
			s2 -= twoQ
		}
		t2 := lazyMulShoup(c+fourQ-d, w2, w2s, q)
		a = s1 + s2
		if a >= fourQ {
			a -= fourQ
		}
		if a >= twoQ {
			a -= twoQ
		}
		c = lazyMulShoup(s1+fourQ-s2, w3, w3s, q)
		b = t1 + t2
		if b >= fourQ {
			b -= fourQ
		}
		if b >= twoQ {
			b -= twoQ
		}
		d = lazyMulShoup(t1+fourQ-t2, w3, w3s, q)
		xq := x[j : j+4]
		xq[0], xq[1], xq[2], xq[3] = a, b, c, d
	}

	// Stride-4 stage: one radix-2 sweep below the unroll width.
	{
		h := n >> 3
		th := itw[h*base : h*base+h]
		ths := itws[h*base : h*base+h]
		ths = ths[:len(th)]
		for i := range th {
			w, ws := th[i], ths[i]
			j1 := i << 3
			xq := x[j1 : j1+8] // constant length: accesses check-free
			for k := 0; k < 4; k++ {
				u, v := xq[k], xq[k+4]
				sum := u + v
				if sum >= fourQ {
					sum -= fourQ
				}
				if sum >= twoQ {
					sum -= twoQ
				}
				xq[k] = sum
				xq[k+4] = lazyMulShoup(u+fourQ-v, w, ws, q)
			}
		}
	}

	// Remaining stages: stride t = 8 … n/2, radix-2 with the 8-wide
	// unrolled body (see nttRow for the register-pressure rationale); the
	// N^{-1} exact-reduction epilogue rides the last stage's stores.
	t := 8
	for h := n >> 4; h >= 1; h >>= 1 {
		th := itw[h*base : h*base+h]
		ths := itws[h*base : h*base+h]
		ths = ths[:len(th)]
		last := h == 1 && epilogue
		j1 := 0
		for i := range th {
			w, ws := th[i], ths[i]
			xx := x[j1 : j1+t]
			yy := x[j1+t : j1+2*t]
			yy = yy[:len(xx)]
			if last {
				// An epilogue row is a whole limb (base 1), so its one
				// twiddle is invTwiddle[1].
				s.inttLast(xx, yy)
			} else {
				for k := 0; k+8 <= len(xx); k += 8 {
					px := (*[8]uint64)(xx[k:])
					py := (*[8]uint64)(yy[k:])
					inttButterfly8(px, py, w, ws, q, twoQ, fourQ)
				}
			}
			j1 += t << 1
		}
		t <<= 1
	}
}

// inttLast is the last inverse stage with the N^{-1} epilogue fused, on
// the pairs (xx[k], yy[k]) under twiddle invTwiddle[1]: the sum is
// scaled by N^{-1}, the difference by nInvW = invTwiddle[1]·N^{-1} in
// one Shoup product, and both are stored exact. A function of its own so
// the N^{-1} constants stay out of the steady-state register set.
func (s *SubRing) inttLast(xx, yy []uint64) {
	q := s.Q
	twoQ, fourQ := 2*q, 4*q
	yy = yy[:len(xx)] // bounds-check elimination for yy[k]
	for k := range xx {
		u, v := xx[k], yy[k]
		sum := u + v
		if sum >= fourQ {
			sum -= fourQ
		}
		if sum >= twoQ {
			sum -= twoQ
		}
		xx[k] = mathutil.MulModShoup(lazyReduce(sum, q), s.nInv, s.nInvShoup, q)
		pr := lazyMulShoup(u+fourQ-v, s.nInvW, s.nInvWShoup, q)
		if pr >= q {
			pr -= q
		}
		yy[k] = pr
	}
}

// inttButterfly8 applies one shared-twiddle inverse butterfly to the
// eight lanes of (px, py), the mirror of nttButterfly8 for the strided
// Gentleman–Sande stages.
func inttButterfly8(px, py *[8]uint64, w, ws, q, twoQ, fourQ uint64) {
	for k := 0; k < 2; k++ {
		o := k << 2
		u0, v0 := px[o], py[o]
		u1, v1 := px[o+1], py[o+1]
		u2, v2 := px[o+2], py[o+2]
		u3, v3 := px[o+3], py[o+3]
		s0 := u0 + v0
		if s0 >= fourQ {
			s0 -= fourQ
		}
		if s0 >= twoQ {
			s0 -= twoQ
		}
		s1 := u1 + v1
		if s1 >= fourQ {
			s1 -= fourQ
		}
		if s1 >= twoQ {
			s1 -= twoQ
		}
		s2 := u2 + v2
		if s2 >= fourQ {
			s2 -= fourQ
		}
		if s2 >= twoQ {
			s2 -= twoQ
		}
		s3 := u3 + v3
		if s3 >= fourQ {
			s3 -= fourQ
		}
		if s3 >= twoQ {
			s3 -= twoQ
		}
		px[o], py[o] = s0, lazyMulShoup(u0+fourQ-v0, w, ws, q)
		px[o+1], py[o+1] = s1, lazyMulShoup(u1+fourQ-v1, w, ws, q)
		px[o+2], py[o+2] = s2, lazyMulShoup(u2+fourQ-v2, w, ws, q)
		px[o+3], py[o+3] = s3, lazyMulShoup(u3+fourQ-v3, w, ws, q)
	}
}

// lazyReduce folds a value < 4q into [0, q).
func lazyReduce(v, q uint64) uint64 {
	if v >= 2*q {
		v -= 2 * q
	}
	if v >= q {
		v -= q
	}
	return v
}

// NTTPoly transforms every limb of p into evaluation form.
func (r *Ring) NTTPoly(p *Poly) {
	for i, s := range r.SubRings {
		s.NTT(p.Coeffs[i])
	}
	p.IsNTT = true
}

// INTTPoly transforms every limb of p back to coefficient form.
func (r *Ring) INTTPoly(p *Poly) {
	r.INTTPolyTo(p, p)
}

// INTTPolyTo writes the coefficient form of every limb of src into dst
// (SubRing.INTTTo), leaving src unchanged unless it is dst.
func (r *Ring) INTTPolyTo(dst, src *Poly) {
	for i, s := range r.SubRings {
		s.INTTTo(dst.Coeffs[i], src.Coeffs[i])
	}
	dst.IsNTT = false
}
