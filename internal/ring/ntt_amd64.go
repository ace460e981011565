package ring

// AVX-512 IFMA transforms: the scalar kernels' schedule, eight
// butterflies per ZMM vector.
//
// For q < 2^50 every lazy value (< 4q) fits the 52-bit lanes of
// VPMADD52{L,H}UQ, so a Harvey butterfly needs no 64-bit product (moduli
// up to 2^51 are handled below):
//
//	quotient  Q = hi52(y·w')                   w' = ⌊w·2^52/q⌋
//	product   v = (lo52(y·w) + lo52(Q·(2^52−q))) mod 2^52 ∈ [0, 2q)
//	fold      u = min(x, x − 2q)
//
// w' is twiddleShoup >> 12 exactly (⌊⌊w·2^64/q⌋/2^12⌋ = ⌊w·2^52/q⌋),
// so the kernels read the scalar tables and keep none of their own. The
// quotient estimate errs by at most one, as in the 64-bit Shoup product,
// so every value keeps the scalar kernels' bounds. Intermediate lazy
// representatives can differ from the scalar ones by q; both kernels end
// in canonical residues, so their outputs are identical.
//
// The inverse butterfly forms its difference as u + 2q − v (< 4q), not
// the scalar u + 4q − v, which can pass 2^52: the vector kernel folds its
// inputs below 2q once, on entry, and every stage stores values < 2q.
//
// For 2^50 ≤ q < 2^51 a lazy value below 4q can reach 2^52, so each
// kernel's second loop folds every multiplicand y below 2q (one
// VPSUBQ/VPMINUQ pair) before its product: the forward butterfly's y,
// the inverse butterfly's difference u + 2q − v, and both products of
// the fused N^{-1} stage. Then y < 2q < 2^52, the quotient still errs by
// at most one (y·(w·2^52/q − w′)/2^52 < 1), v = y·w − Q·q ∈ [0, 2q) is
// below 2^52 so the 52-bit mask keeps it whole, and w′ < 2^52 since
// w < q. The sums u + v and u + 2q − v are below 4q < 2^53 in 64-bit
// lanes. Each kernel picks its loop once per call from bit 50 of q, so
// limbs below 2^50 run the unfolded instruction stream.

// Implemented in ntt_amd64.s.

// fwdStageIFMA runs one strided forward stage over x: len(w) blocks of
// 2t words, block i pairing x[2it+k] with x[2it+t+k] under twiddle w[i].
// t must be a multiple of 8.
//
//go:noescape
func fwdStageIFMA(x []uint64, t int, w, ws []uint64, q uint64)

// fwdTailIFMA runs the stride-4, -2 and -1 forward stages on each
// 16-word group of x in registers and stores exact residues in [0, q).
// Group g reads w4[2g:2g+2], w2[4g:4g+4] and w1[8g:8g+8].
//
//go:noescape
func fwdTailIFMA(x, w4, ws4, w2, ws2, w1, ws1 []uint64, q uint64)

// invHeadIFMA folds x below 2q and runs the stride-1, -2 and -4 inverse
// stages on each 16-word group in registers; group g reads w1[8g:8g+8],
// w2[4g:4g+4] and w4[2g:2g+2].
//
//go:noescape
func invHeadIFMA(x, w1, ws1, w2, ws2, w4, ws4 []uint64, q uint64)

// invStageIFMA is the inverse counterpart of fwdStageIFMA. Inputs must
// be below 2q.
//
//go:noescape
func invStageIFMA(x []uint64, t int, w, ws []uint64, q uint64)

// invLastIFMA runs the single-block last inverse stage with the N^{-1}
// epilogue fused: x[k] ← n·(x[k]+x[k+h]), x[k+h] ← nw·(x[k]−x[k+h]),
// h = len(x)/2, both exact in [0, q). Inputs must be below 2q.
//
//go:noescape
func invLastIFMA(x []uint64, n, nShoup, nw, nwShoup, q uint64)

// nttRowIFMA is nttRow on the vector kernels: one call per strided
// stage, then the three contiguous stages and the exact reduction.
func (s *SubRing) nttRowIFMA(x []uint64, base int) {
	tw, tws := s.twiddle, s.twiddleShoup
	lm := 1
	for t := len(x) >> 1; t >= 8; t >>= 1 {
		lo := lm * base
		fwdStageIFMA(x, t, tw[lo:lo+lm], tws[lo:lo+lm], s.Q)
		lm <<= 1
	}
	l4, l2, l1 := lm*base, 2*lm*base, 4*lm*base
	fwdTailIFMA(x,
		tw[l4:l4+lm], tws[l4:l4+lm],
		tw[l2:l2+2*lm], tws[l2:l2+2*lm],
		tw[l1:l1+4*lm], tws[l1:l1+4*lm], s.Q)
}

// inttRowIFMA is inttRow on the vector kernels.
func (s *SubRing) inttRowIFMA(x []uint64, base int, epilogue bool) {
	itw, itws := s.invTwiddle, s.invTwiddleShoup
	n := len(x)
	h1, h2, h4 := n>>1, n>>2, n>>3
	l1, l2, l4 := h1*base, h2*base, h4*base
	invHeadIFMA(x,
		itw[l1:l1+h1], itws[l1:l1+h1],
		itw[l2:l2+h2], itws[l2:l2+h2],
		itw[l4:l4+h4], itws[l4:l4+h4], s.Q)
	t := 8
	for h := n >> 4; h >= 1; h >>= 1 {
		if h == 1 && epilogue {
			invLastIFMA(x, s.nInv, s.nInvShoup, s.nInvW, s.nInvWShoup, s.Q)
			break
		}
		lo := h * base
		invStageIFMA(x, t, itw[lo:lo+h], itws[lo:lo+h], s.Q)
		t <<= 1
	}
}

// nttColumnsIFMA runs phase A's column stages on the gathered block buf
// (rows rows of bw words): the rows of one stage block are contiguous,
// so each stage is one strided stage of half-width tau·bw.
func (s *SubRing) nttColumnsIFMA(buf []uint64, rows, bw int) {
	tau := rows
	for m := 1; m < rows; m <<= 1 {
		tau >>= 1
		fwdStageIFMA(buf, tau*bw, s.twiddle[m:2*m], s.twiddleShoup[m:2*m], s.Q)
	}
}

// inttColumnsIFMA runs the blocked inverse's column stages on buf, the
// last with the N^{-1} epilogue, so buf holds exact residues after it.
func (s *SubRing) inttColumnsIFMA(buf []uint64, rows, bw int) {
	tau := 1
	for m := rows; m > 2; m >>= 1 {
		h := m >> 1
		invStageIFMA(buf, tau*bw, s.invTwiddle[h:m], s.invTwiddleShoup[h:m], s.Q)
		tau <<= 1
	}
	invLastIFMA(buf, s.nInv, s.nInvShoup, s.nInvW, s.nInvWShoup, s.Q)
}
