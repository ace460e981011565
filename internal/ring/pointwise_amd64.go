package ring

// Implemented in pointwise_amd64.s; the wrappers in pointwise.go check
// the operand lengths. Each writes as many words as its first slice
// holds.

//go:noescape
func tensorIFMA(d0, d1, d2, a0, a1, b0, b1 []uint64, q, qn, r52, r52s uint64)

//go:noescape
func tensorSquareIFMA(d0, d1, d2, a0, a1 []uint64, q, qn, r52, r52s uint64)

// mulScalarAddIFMA reads x at perm[c] clamped to idxMax or, with perm
// nil, at c; ws is w's 52-bit companion.
//
//go:noescape
func mulScalarAddIFMA(acc, x []uint64, perm []int, idxMax, w, ws, q uint64)

//go:noescape
func subMulIFMA(out, a, b []uint64, w, ws, q uint64)

// mulScalarIFMA writes x·w; ws is w's 52-bit companion.
//
//go:noescape
func mulScalarIFMA(out, x []uint64, w, ws, q uint64)

//go:noescape
func addIFMA(out, a, b []uint64, q uint64)

//go:noescape
func subIFMA(out, a, b []uint64, q uint64)

//go:noescape
func reduceAddIFMA(out, x []uint64, c, oneShoup, q uint64)

// scaleEstimateIFMA writes len(v) words of every y row and of v from the
// source rows at offset off, one input limb per five words of rows.
//
//go:noescape
func scaleEstimateIFMA(src [][]uint64, off int, y [][]uint64, v, rows []uint64)
