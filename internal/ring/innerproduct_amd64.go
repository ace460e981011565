package ring

// Implemented in innerproduct_amd64.s; the wrappers in innerproduct.go
// check the operand shapes.

// gatherMulAccIFMA writes u[k][c] and v[k][c], k < len(u) ≤ MaxLanes and
// c < n, as GatherMulAccumulate does, reading digit row j·len(u)+k at
// perm[c] (clamped to idxMax) or, with perm nil, at c.
//
//go:noescape
func gatherMulAccIFMA(d, b, a [][]uint64, perm []int, u, v [][]uint64, n, idxMax, q, qn, r40, r40s uint64)

// seededSumIFMA writes dst[c] = (seed[idx[c]] + Σ_i y[i][c]·w[i])·2^-64
// mod q for c < len(dst), idx[c] clamped to idxMax.
//
//go:noescape
func seededSumIFMA(dst []uint64, y [][]uint64, w, seed, idx []uint64, idxMax, q, qn, r40, r40s uint64)
