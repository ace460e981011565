// Package rns implements the residue-number-system basis-change machinery
// of RNS-CKKS: the fast basis extension of Eq. (1) in the paper (called
// NewLimb there), ModUp (Algorithm 1), ModDown (Algorithm 2), Rescale (the
// single-limb specialization of ModDown), and PModUp (Algorithm 5, the
// free lift b → P·b used by the algorithmic MAD optimizations).
//
// These are exactly the operations whose slot-wise data-access pattern
// forces the orientation switches the paper's memory analysis revolves
// around: NewLimb needs all limbs of one coefficient, whereas NTT/iNTT
// need all coefficients of one limb. The production kernel below resolves
// that tension the way the paper's limb re-ordering does in hardware:
// coefficients are processed in cache-resident tiles, inside which every
// loop streams contiguous memory (see docs/PERF.md). Where the CPU has
// AVX-512 IFMA and every modulus is below 2^51, both stages of the
// extension run on the ring package's vector kernels (ring.VectorEstimate,
// ring.VectorMont), eight coefficients per instruction, with the same
// output words, and so do the per-word passes of ModDown and Rescale
// (ring.SubRing.SubThenMulScalar, ReduceThenAddConst).
package rns

import (
	"fmt"
	"sync"

	"repro/internal/mathutil"
	"repro/internal/memtrace"
	"repro/internal/ring"
	"repro/internal/simd"
)

// ExtendTile is the cache-blocking width of the basis-extension kernel:
// the number of coefficients whose intermediate y-values are materialized
// into contiguous scratch before the output limbs are produced. The
// working set per tile is (ℓ+4)·8·ExtendTile bytes — at ℓ = 20 limbs and
// the default 512 coefficients that is ~96 KiB, sized to sit in L2 while
// each inner loop walks a single contiguous row (L1-resident). This is
// the software analogue of MAD's limb re-ordering: instead of striding
// across limb-major polynomials per coefficient, the kernel re-orders the
// computation so all limb-major accesses are sequential within a tile.
const ExtendTile = 512

// ExtTable holds the precomputations to extend values from an input RNS
// basis {q_1..q_ℓ} to an output basis {p_1..p_k}: the per-coefficient
// "NewLimb" operation of Eq. (1), with the floating-point overflow
// correction of Halevi–Polyakov–Shoup so the conversion is exact (up to a
// ±1 rounding slack near the wraparound boundary).
//
// The production kernel closes every output word with a Montgomery
// reduction, which divides by R = 2^64 mod p_j; its constants carry the
// compensating factor. A canonical table (NewExtTable) carries R and
// outputs x; a Montgomery-out table (newExtTable with montOut, ModUp's)
// carries R² and outputs R·x mod p_j, the form the key-switch product
// takes its digits in.
type ExtTable struct {
	In, Out []uint64

	qiTilde      []uint64   // (Q/q_i)^{-1} mod q_i
	qiTildeShoup []uint64   // Shoup precomputation of the above
	qiStar       [][]uint64 // [j][i] = (Q/q_i) mod p_j (ExtendReference)
	qModOut      []uint64   // Q mod p_j (ExtendReference)
	qiStarMont   [][]uint64 // [j][i] = (Q/q_i)·R^e mod p_j, e = 1 or 2 (montOut)
	vqOut        [][]uint64 // [j][k] = (−k·Q)·R^e mod p_j for k ∈ [0, ℓ]
	qiInvFloat   []float64  // 1 / q_i
	outBarrett   []mathutil.Barrett
	outQNeg      []uint64 // −p_j⁻¹ mod 2^64, the Montgomery constant
	fold         int      // products per sum between folds: MontMaxTerms(max q_i)

	// vector is the constructor's choice of the vector stages: stage 1
	// on inVec (ring.VectorEstimate.ScaleAndEstimate), stage 2 on outVec
	// (ring.VectorMont.SeededSum, one close per output limb). It is made
	// when the CPU runs the ring's vector kernels, every In and Out
	// modulus is below 2^51 and 1 ≤ ℓ ≤ ring.MaxLaneTerms, and
	// simd.UseVectorKernels(false) overrides it.
	vector bool
	inVec  ring.VectorEstimate
	outVec []ring.VectorMont

	scratch sync.Pool // *extScratch, sized for ExtendTile coefficients
}

// extScratch is the per-tile working set of the production kernel: the
// materialized y-values (ℓ contiguous rows of ExtendTile words), the
// float overflow accumulators, the integer overflow estimates, and the
// 128-bit accumulator halves a sum of more than four limbs carries
// between passes. Pooled per table so concurrent Extend calls (the
// coefficient-chunked parallel path) never share or allocate scratch in
// steady state.
type extScratch struct {
	y      [][]uint64
	vf     []float64
	v      []uint64
	hi, lo []uint64
}

// NewExtTable builds the canonical extension table from basis in to basis
// out. The bases must be disjoint sets of NTT primes.
func NewExtTable(in, out []uint64) *ExtTable { return newExtTable(in, out, false) }

// newExtTable builds the extension table from in to out; with montOut its
// Extend writes R·x mod p_j instead of x (ExtendReference is canonical
// either way).
func newExtTable(in, out []uint64, montOut bool) *ExtTable {
	t := &ExtTable{
		In:           append([]uint64(nil), in...),
		Out:          append([]uint64(nil), out...),
		qiTilde:      make([]uint64, len(in)),
		qiTildeShoup: make([]uint64, len(in)),
		qiStar:       make([][]uint64, len(out)),
		qModOut:      make([]uint64, len(out)),
		qiStarMont:   make([][]uint64, len(out)),
		vqOut:        make([][]uint64, len(out)),
		qiInvFloat:   make([]float64, len(in)),
		outBarrett:   make([]mathutil.Barrett, len(out)),
		outQNeg:      make([]uint64, len(out)),
	}
	maxIn := uint64(2)
	for i, qi := range in {
		// (Q/q_i) mod q_i = ∏_{k≠i} q_k mod q_i
		prod := uint64(1)
		br := mathutil.NewBarrett(qi)
		for k, qk := range in {
			if k != i {
				prod = br.MulMod(prod, br.Reduce(qk))
			}
		}
		t.qiTilde[i] = mathutil.InvMod(prod, qi)
		t.qiTildeShoup[i] = mathutil.ShoupPrecomp(t.qiTilde[i], qi)
		t.qiInvFloat[i] = 1.0 / float64(qi)
		maxIn = max(maxIn, qi)
	}
	// Each output word sums ℓ products y_i·w with y_i < q_i and w < p_j on
	// a seed below p_j.
	t.fold = mathutil.MontMaxTerms(maxIn)
	var ok bool
	t.inVec, ok = ring.NewVectorEstimate(in, t.qiTilde, t.qiTildeShoup, t.qiInvFloat)
	t.vector = ok && len(in) > 0 && len(in) <= ring.MaxLaneTerms
	t.outVec = make([]ring.VectorMont, len(out))
	for j, pj := range out {
		br := mathutil.NewBarrett(pj)
		t.outBarrett[j] = br
		t.outQNeg[j] = mathutil.MontQNeg(pj)
		t.outVec[j], ok = ring.NewVectorMont(pj)
		t.vector = t.vector && ok
		scale := mathutil.MontR(pj) // R^e: the factor the closing MontReduce divides out, times R for montOut
		if montOut {
			scale = br.MulMod(scale, scale)
		}
		t.qiStar[j] = make([]uint64, len(in))
		t.qiStarMont[j] = make([]uint64, len(in))
		qMod := uint64(1)
		for _, qk := range in {
			qMod = br.MulMod(qMod, br.Reduce(qk))
		}
		t.qModOut[j] = qMod
		// The overflow estimate v = floor(Σ y_i/q_i) is bounded by ℓ: the
		// true sum is < ℓ and the float64 summation error across ℓ ≤ 64
		// terms stays far below 1, so the correction v·Q mod p_j is one of
		// ℓ+1 values and the hot kernel can look it up instead of paying a
		// Barrett multiply per output element. It is stored negated, so the
		// kernel seeds its accumulator with it and needs no final subtract.
		t.vqOut[j] = make([]uint64, len(in)+1)
		qModR := br.MulMod(qMod, scale)
		for k := 1; k <= len(in); k++ {
			t.vqOut[j][k] = mathutil.SubMod(t.vqOut[j][k-1], qModR, pj)
		}
		for i := range in {
			prod := uint64(1)
			for k, qk := range in {
				if k != i {
					prod = br.MulMod(prod, br.Reduce(qk))
				}
			}
			t.qiStar[j][i] = prod
			t.qiStarMont[j][i] = br.MulMod(prod, scale)
		}
	}
	nIn := len(in)
	t.scratch.New = func() any {
		sc := &extScratch{
			y:  make([][]uint64, nIn),
			vf: make([]float64, ExtendTile),
			v:  make([]uint64, ExtendTile),
			hi: make([]uint64, ExtendTile),
			lo: make([]uint64, ExtendTile),
		}
		backing := make([]uint64, nIn*ExtendTile)
		for i := range sc.y {
			sc.y[i], backing = backing[:ExtendTile:ExtendTile], backing[ExtendTile:]
		}
		return sc
	}
	return t
}

func (t *ExtTable) checkShapes(src, dst [][]uint64) {
	if len(src) != len(t.In) || len(dst) != len(t.Out) {
		panic(fmt.Sprintf("rns: Extend limbs (got=%d in/%d out, want=%d/%d)",
			len(src), len(dst), len(t.In), len(t.Out)))
	}
}

// Extend converts a batch of coefficients from the input basis to the
// output basis: src[i][c] is coefficient c modulo In[i] and dst[j][c]
// receives coefficient c modulo Out[j] (times R for a Montgomery-out
// table). All limbs must be in coefficient (non-NTT) representation;
// basis conversion is meaningless slot-wise.
//
// This is the vectorized NewLimb of Eq. (1): for each coefficient it
// computes y_i = [x]_{q_i}·Q̃_i mod q_i, estimates the overflow
// v = round(Σ y_i/q_i), and outputs Σ y_i·Q*_i − v·Q (mod p_j).
//
// The kernel is tiled and lazily reduced: per output element the ℓ
// products accumulate exactly into one 128-bit sum closed by a single
// Montgomery reduction, instead of ℓ full reductions plus ℓ modular adds
// (see docs/PERF.md for the bound and the R bookkeeping). The output is
// bit-identical to ExtendReference (R times it for a Montgomery-out
// table), which the tests enforce.
func (t *ExtTable) Extend(src, dst [][]uint64) {
	t.checkShapes(src, dst)
	if len(t.In) == 0 {
		for j := range dst {
			clear(dst[j])
		}
		return
	}
	n := len(src[0])
	sc := t.scratch.Get().(*extScratch)
	vec := t.vector && simd.VectorKernels()
	for c0 := 0; c0 < n; c0 += ExtendTile {
		b := min(ExtendTile, n-c0)
		t.extendTile(src, dst, c0, b, vec, sc)
	}
	t.scratch.Put(sc)
}

// extendTile converts coefficients [c0, c0+b) — one cache tile. Stage 1
// materializes y_i = [x]_{q_i}·Q̃_i mod q_i into contiguous per-limb rows
// (i-outer/c-inner: src rows and y rows both stream sequentially) and
// accumulates the float overflow estimate in the same ascending-i order as
// the reference kernel, so the rounding is identical: each product is
// rounded before it is added, on every architecture. Stage 2 runs
// j-outer/c-inner: each output word is the 128-bit sum
//
//	T = (−v·Q)·R^e + Σ_i y_i·(Q*_i·R^e)   (mod p_j)
//
// seeded from vqOut and closed by one MontReduce, which divides the R
// back out. Up to four input limbs the products stay in registers and the
// tile makes one pass per output limb; a wider basis adds four limbs per
// pass into the tile's (hi, lo) scratch and reduces it (Reduce128, the
// residue unchanged) whenever the next four would exceed t.fold products.
// Every inner loop touches only contiguous rows of the tile scratch or of
// src/dst. With vec set (the table's choice and the ring package's
// kernel switch, read once per call) it computes the same words with
// ring.VectorEstimate.ScaleAndEstimate (stage 1: the same Shoup products
// and float sum, in the same order, never fused) and
// ring.VectorMont.SeededSum, one call per output limb.
func (t *ExtTable) extendTile(src, dst [][]uint64, c0, b int, vec bool, sc *extScratch) {
	y, v := sc.y[:len(t.In)], sc.v[:b]
	if vec {
		t.inVec.ScaleAndEstimate(src, c0, y, v)
		for j := range t.Out {
			t.outVec[j].SeededSum(dst[j][c0:c0+b], y, t.qiStarMont[j], t.vqOut[j], v)
		}
		return
	}

	// Stage 1: y values and overflow estimate.
	vf := sc.vf[:b]
	clear(vf)
	for i := range t.In {
		yi := y[i][:b]
		si := src[i][c0 : c0+b]
		qi, tilde, tildeShoup, inv := t.In[i], t.qiTilde[i], t.qiTildeShoup[i], t.qiInvFloat[i]
		for c, x := range si {
			w := mathutil.MulModShoup(x, tilde, tildeShoup, qi)
			yi[c] = w
			vf[c] += float64(float64(w) * inv) // the conversion rounds the product: no FMA
		}
	}
	for c := range v {
		// Flooring the float sum recovers the positive-range
		// representative exactly (up to float64 slack at the wrap
		// boundary); identical to the reference kernel's rounding.
		v[c] = uint64(vf[c])
	}

	// Stage 2: one output limb at a time.
	for j := range t.Out {
		p, pNeg, w, vq := t.Out[j], t.outQNeg[j], t.qiStarMont[j], t.vqOut[j]
		dj := dst[j][c0 : c0+b]
		switch len(y) {
		case 1:
			y0, w0 := y[0][:b], w[0]
			for c := range dj {
				h, l := mathutil.MulAdd128(0, vq[v[c]], y0[c], w0)
				dj[c] = mathutil.MontReduce(h, l, p, pNeg)
			}
		case 2:
			y0, y1, w0, w1 := y[0][:b], y[1][:b], w[0], w[1]
			for c := range dj {
				h, l := mathutil.MulAdd128(0, vq[v[c]], y0[c], w0)
				h, l = mathutil.MulAdd128(h, l, y1[c], w1)
				dj[c] = mathutil.MontReduce(h, l, p, pNeg)
			}
		case 3:
			y0, y1, y2 := y[0][:b], y[1][:b], y[2][:b]
			w0, w1, w2 := w[0], w[1], w[2]
			for c := range dj {
				h, l := mathutil.MulAdd128(0, vq[v[c]], y0[c], w0)
				h, l = mathutil.MulAdd128(h, l, y1[c], w1)
				h, l = mathutil.MulAdd128(h, l, y2[c], w2)
				dj[c] = mathutil.MontReduce(h, l, p, pNeg)
			}
		case 4:
			y0, y1, y2, y3 := y[0][:b], y[1][:b], y[2][:b], y[3][:b]
			w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
			for c := range dj {
				h, l := mathutil.MulAdd128(0, vq[v[c]], y0[c], w0)
				h, l = mathutil.MulAdd128(h, l, y1[c], w1)
				h, l = mathutil.MulAdd128(h, l, y2[c], w2)
				h, l = mathutil.MulAdd128(h, l, y3[c], w3)
				dj[c] = mathutil.MontReduce(h, l, p, pNeg)
			}
		default:
			t.extendWide(y, v, dj, j, sc)
		}
	}
}

// extendWide is stage 2 of extendTile for one output limb of a basis of
// more than four input limbs: the sum is carried in the tile's (hi, lo)
// scratch across passes of four limbs (and one pass per leftover limb).
func (t *ExtTable) extendWide(y [][]uint64, v, dj []uint64, j int, sc *extScratch) {
	b := len(dj)
	p, pNeg, br, w, vq := t.Out[j], t.outQNeg[j], t.outBarrett[j], t.qiStarMont[j], t.vqOut[j]
	hi, lo := sc.hi[:b], sc.lo[:b]
	for c := range lo {
		hi[c], lo[c] = 0, vq[v[c]]
	}
	terms := 0
	for i := 0; i < len(y); i += 4 {
		k := min(4, len(y)-i)
		if terms+k > t.fold {
			for c := range lo {
				hi[c], lo[c] = 0, br.Reduce128(hi[c], lo[c])
			}
			terms = 0
		}
		terms += k
		if k == 4 {
			y0, y1, y2, y3 := y[i][:b], y[i+1][:b], y[i+2][:b], y[i+3][:b]
			w0, w1, w2, w3 := w[i], w[i+1], w[i+2], w[i+3]
			for c := range lo {
				h, l := mathutil.MulAdd128(hi[c], lo[c], y0[c], w0)
				h, l = mathutil.MulAdd128(h, l, y1[c], w1)
				h, l = mathutil.MulAdd128(h, l, y2[c], w2)
				hi[c], lo[c] = mathutil.MulAdd128(h, l, y3[c], w3)
			}
			continue
		}
		for r := i; r < len(y); r++ {
			yr, wr := y[r][:b], w[r]
			for c := range lo {
				hi[c], lo[c] = mathutil.MulAdd128(hi[c], lo[c], yr[c], wr)
			}
		}
	}
	for c := range dj {
		dj[c] = mathutil.MontReduce(hi[c], lo[c], p, pNeg)
	}
}

// ExtendTraced is Extend with the tile-granular memory access stream
// recorded into tr: per tile, one read of each source row segment
// (srcClass) and one write of each destination row segment (dstClass) —
// exactly the NewLimb input/output traffic the analytic model charges.
// The tile scratch (y, vf, v, hi, lo — ≤ ~96 KiB by construction, see
// ExtendTile) models the on-chip working set of MAD's limb re-ordering
// and is deliberately not recorded: its stage-2 row re-reads never leave
// the cache level the tile was sized for. The tracer is a parameter
// rather than a table field because ExtTables are cached and shared
// across converters and goroutines. Runs serially; callers that trace
// accept the serialization.
func (t *ExtTable) ExtendTraced(src, dst [][]uint64, tr *memtrace.Tracer, srcClass, dstClass memtrace.Class) {
	t.checkShapes(src, dst)
	if len(t.In) == 0 {
		for j := range dst {
			clear(dst[j])
			tr.WriteClass(dst[j], dstClass)
		}
		return
	}
	n := len(src[0])
	sc := t.scratch.Get().(*extScratch)
	vec := t.vector && simd.VectorKernels()
	for c0 := 0; c0 < n; c0 += ExtendTile {
		b := min(ExtendTile, n-c0)
		for i := range src {
			tr.ReadClass(src[i][c0:c0+b], srcClass)
		}
		t.extendTile(src, dst, c0, b, vec, sc)
		for j := range dst {
			tr.WriteClass(dst[j][c0:c0+b], dstClass)
		}
	}
	t.scratch.Put(sc)
}

// ExtendReference is the original scalar NewLimb kernel: a full Barrett
// reduction and a modular add per (coefficient × input-limb × output-limb)
// triple, walking src limb-strided. It is retained verbatim as the test
// and benchmark oracle for the tiled lazy kernel — the golden tests demand
// Extend be bit-identical to it — and must not be used on hot paths.
func (t *ExtTable) ExtendReference(src, dst [][]uint64) {
	t.checkShapes(src, dst)
	if len(t.In) == 0 {
		for j := range dst {
			clear(dst[j])
		}
		return
	}
	n := len(src[0])
	y := make([]uint64, len(t.In))
	for c := 0; c < n; c++ {
		// Overflow estimate: Σ y_i·(Q/q_i) = x + floor(Σ y_i/q_i)·Q for
		// x ∈ [0, Q), so flooring the float sum recovers the positive-range
		// representative exactly (up to float64 slack at the wrap boundary).
		vFloat := 0.0
		for i := range t.In {
			yi := mathutil.MulModShoup(src[i][c], t.qiTilde[i], t.qiTildeShoup[i], t.In[i])
			y[i] = yi
			vFloat += float64(float64(yi) * t.qiInvFloat[i]) // the conversion rounds the product: no FMA
		}
		v := uint64(vFloat)
		for j := range t.Out {
			br := t.outBarrett[j]
			pj := t.Out[j]
			acc := uint64(0)
			for i := range t.In {
				acc = mathutil.AddMod(acc, br.MulMod(y[i], t.qiStar[j][i]), pj)
			}
			corr := br.MulMod(v%pj, t.qModOut[j])
			dst[j][c] = mathutil.SubMod(acc, corr, pj)
		}
	}
}

// ProductMod returns (∏ moduli) mod p.
func ProductMod(moduli []uint64, p uint64) uint64 {
	br := mathutil.NewBarrett(p)
	prod := uint64(1)
	for _, q := range moduli {
		prod = br.MulMod(prod, br.Reduce(q))
	}
	return prod
}
