package rns

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/mathutil"
	"repro/internal/prng"
	"repro/internal/ring"
	"repro/internal/simd"
)

// The kernel harness. Every kernel with a scalar and a vector body is one
// row of kernelRows: a name and a draw, which generates one call's
// operands and returns the call and, where an independent body exists
// (NTTReference, the strict per-digit key product, the scalar first-stage
// loop, ExtendReference), the words the call must write. checkKernel runs
// the call with simd.UseVectorKernels(false) and, where this host has
// vector kernels (AVX512F), again with the switch on, and holds each run
// to the reference or, without one, the vector run to the scalar one.
// TestKernelsMatch walks every row over every modulus class, length,
// fill, gather and shape of the row; FuzzKernels draws one of each. The
// harness lives here, not in internal/ring, because the Extend row needs
// newExtTable's Montgomery-out tables.

// modulusClass is one family of NTT primes the kernels run on.
type modulusClass struct {
	name string
	bits int
	near bool // GenerateNTTPrimesNear, the CKKS draw around 2^bits, instead of the largest primes below it
}

// modulusClasses reach every kernel body and both vector NTT loops: the
// 30-, 40- and 45-bit primes the workloads and tests build; the largest
// below 2^50, the least room under the narrow NTT loop's 4q < 2^52; the
// CKKS primes alternating around 2^50, the workloads' limbs, whose first
// two straddle 2^50; the largest below 2^51, the least room under the
// wide loop's 2q < 2^52 and in the key product's lane sums and close;
// and 61-bit primes, against the modulus cap, which always run the
// scalar kernels and where the scalar key product and Extend fold.
var modulusClasses = []modulusClass{
	{"30-bit", 30, false},
	{"40-bit", 40, false},
	{"45-bit", 45, false},
	{"2^50 − k", 50, false},
	{"2^50 ± k", 50, true},
	{"2^51 − k", 51, false},
	{"61-bit", 61, false},
}

const (
	// kernelLogN is the degree the class primes are drawn for, so they
	// serve every ring the harness builds.
	kernelLogN = 12
	// classPoolSize primes per class feed Extend's widest bases.
	classPoolSize = 40
	// maxTileLength caps the lengths of the rows whose cost grows with
	// a second axis (digits, limbs): four key-product tiles plus a tail,
	// two extension tiles plus a tail.
	maxTileLength = 1057
)

// classPools returns the first classPoolSize primes of each class.
var classPools = sync.OnceValues(func() ([][]uint64, error) {
	pools := make([][]uint64, len(modulusClasses))
	for i, c := range modulusClasses {
		gen := mathutil.GenerateNTTPrimes
		if c.near {
			gen = mathutil.GenerateNTTPrimesNear
		}
		var err error
		if pools[i], err = gen(c.bits, kernelLogN, classPoolSize); err != nil {
			return nil, err
		}
	}
	return pools, nil
})

// kernelLengths are the words per call: 1–17 leave every masked tail of
// the eight-word groups and the sixteen-word step; 255 and 256 straddle
// ring.InnerProductTile, 511–513 ExtendTile; 1057 is several tiles and a
// tail; 2^12, the matvec_hoisted limb, runs the blocked NTT. The NTT
// rows run the powers of two from 16.
var kernelLengths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
	255, 256, 511, 512, 513, maxTileLength, 1 << kernelLogN}

// kernelFills are how a case draws words below a bound: uniform, all 0,
// all bound − 1 (the largest products and sums; for Extend x = Q − 1, the
// float-slack edge of the estimate), or a per-word mix of the three.
var kernelFills = []string{"uniform", "zero", "max", "mix"}

const (
	fillUniform = iota
	fillZero
	fillMax
	fillMix
)

// kernelGathers are the index tables a gathering kernel reads through:
// none, a rotation and the conjugation (Galois permutations, so only at
// ring degrees), and a random permutation.
var kernelGathers = []string{"identity", "rot1", "conjugate", "random"}

const (
	gatherIdentity = iota
	gatherRot1
	gatherConjugate
	gatherRandom
)

// kernelCase is one draw point: indices into the lists above, the row's
// shape and the word source.
type kernelCase struct {
	class, n, fill, gather, shape int
	rng                           *rand.Rand
}

func (c *kernelCase) String() string {
	return fmt.Sprintf("q %s, n=%d, %s words, %s gather, shape %d",
		modulusClasses[c.class].name, c.n, kernelFills[c.fill], kernelGathers[c.gather], c.shape)
}

// pool returns c's class primes.
func (c *kernelCase) pool(t testing.TB) []uint64 {
	t.Helper()
	pools, err := classPools()
	if err != nil {
		t.Fatal(err)
	}
	return pools[c.class]
}

func (c *kernelCase) word(bound uint64) uint64 {
	switch c.fill {
	case fillZero:
		return 0
	case fillMax:
		return bound - 1
	case fillMix:
		switch c.rng.IntN(3) {
		case 0:
			return 0
		case 1:
			return bound - 1
		}
	}
	return c.rng.Uint64N(bound)
}

// row draws n words below bound.
func (c *kernelCase) row(bound uint64) []uint64 {
	r := make([]uint64, c.n)
	for j := range r {
		r[j] = c.word(bound)
	}
	return r
}

// rows draws k rows of n words below bound.
func (c *kernelCase) rows(k int, bound uint64) [][]uint64 {
	m := make([][]uint64, k)
	for j := range m {
		m[j] = c.row(bound)
	}
	return m
}

// poisoned returns a destination the kernel must overwrite, not read.
func (c *kernelCase) poisoned() []uint64 {
	d := make([]uint64, c.n)
	for j := range d {
		d[j] = ^uint64(0)
	}
	return d
}

// classRings caches, per class and degree, a ring on the class's first
// prime or, for the CKKS class, its first two, which straddle 2^50
// (TestKernelSelection checks): one limb for each vector NTT loop.
var classRings sync.Map // [2]int{class, degree} -> *ring.Ring

// onLimbs builds c's class ring of degree max(16, n rounded up to a
// power of two), draws c's gather over it, and has f draw one call per
// sub-ring. It returns the call that runs all of them, their outputs and
// references concatenated, or a nil call where the gather does not apply
// to n.
func (c *kernelCase) onLimbs(t testing.TB, f func(s *ring.SubRing, perm []int) (func() [][]uint64, [][]uint64)) (func() [][]uint64, [][]uint64) {
	t.Helper()
	deg := max(16, 1<<bits.Len(uint(c.n-1)))
	key := [2]int{c.class, deg}
	r, ok := classRings.Load(key)
	if !ok {
		limbs := 1
		if modulusClasses[c.class].near {
			limbs = 2
		}
		nr, err := ring.NewRing(deg, c.pool(t)[:limbs])
		if err != nil {
			t.Fatal(err)
		}
		r, _ = classRings.LoadOrStore(key, nr)
	}
	rr := r.(*ring.Ring)
	var perm []int
	switch c.gather {
	case gatherRandom:
		perm = c.rng.Perm(c.n)
	case gatherRot1, gatherConjugate:
		if deg != c.n {
			return nil, nil
		}
		g := rr.GaloisElement(1)
		if c.gather == gatherConjugate {
			g = rr.GaloisElementConjugate()
		}
		perm = rr.AutomorphismNTTIndex(g)
	}
	var calls []func() [][]uint64
	var want [][]uint64
	for _, s := range rr.SubRings {
		call, ref := f(s, perm)
		if call == nil {
			return nil, nil
		}
		calls, want = append(calls, call), append(want, ref...)
	}
	return func() [][]uint64 {
		var out [][]uint64
		for _, call := range calls {
			out = append(out, call()...)
		}
		return out
	}, want
}

// pointwise makes the draw of a pointwise kernel row from f, which draws
// one sub-ring's operands and returns its call.
func pointwise(f func(c *kernelCase, s *ring.SubRing, perm []int) func() [][]uint64) func(testing.TB, *kernelCase) (func() [][]uint64, [][]uint64) {
	return func(t testing.TB, c *kernelCase) (func() [][]uint64, [][]uint64) {
		return c.onLimbs(t, func(s *ring.SubRing, perm []int) (func() [][]uint64, [][]uint64) {
			return f(c, s, perm), nil
		})
	}
}

// transform makes the draw of an NTT row: the kernel on one limb of n
// words, n a power of two from 16, against its reference.
func transform(kernel, reference func(*ring.SubRing, []uint64)) func(testing.TB, *kernelCase) (func() [][]uint64, [][]uint64) {
	return func(t testing.TB, c *kernelCase) (func() [][]uint64, [][]uint64) {
		if c.n < 16 || c.n&(c.n-1) != 0 {
			return nil, nil
		}
		return c.onLimbs(t, func(s *ring.SubRing, _ []int) (func() [][]uint64, [][]uint64) {
			x := c.row(s.Q)
			want := slices.Clone(x)
			reference(s, want)
			return func() [][]uint64 {
				got := slices.Clone(x)
				kernel(s, got)
				return [][]uint64{got}
			}, [][]uint64{want}
		})
	}
}

// kernelRow is one kernel of the harness.
type kernelRow struct {
	name    string
	shapes  []int // the row's own axis (digits, bases, input limbs); nil: one shape, 0
	gathers bool  // the kernel reads through a gather: run every one of kernelGathers
	avx512f bool  // the vector body needs only AVX512F, not IFMA and q < 2^51
	// draw draws one call's operands for c and returns the call, run once
	// per kernel, and the words it must write, or nil to hold the vector
	// run to the scalar one. A nil call skips the case.
	draw func(t testing.TB, c *kernelCase) (call func() [][]uint64, want [][]uint64)
}

// shapeList returns the row's shapes: its own, or the one shape 0.
func (r kernelRow) shapeList() []int {
	if r.shapes == nil {
		return []int{0}
	}
	return r.shapes
}

var kernelRows = []kernelRow{
	{name: "NTT", draw: transform((*ring.SubRing).NTT, (*ring.SubRing).NTTReference)},
	{name: "INTT", draw: transform((*ring.SubRing).INTT, (*ring.SubRing).INTTReference)},
	// β digits, around the scalar fold guard (7 and 8 products at 61
	// bits; 63–65 fold many times) and the vector kernel's 4095-term
	// limit, past which it hands the sum to the scalar kernel.
	{name: "GatherMulAccumulate", shapes: []int{1, 2, 3, 7, 8, 63, 64, 65, ring.MaxLaneTerms, ring.MaxLaneTerms + 1},
		gathers: true, draw: drawKeyProduct},
	{name: "Tensor", draw: pointwise(func(c *kernelCase, s *ring.SubRing, _ []int) func() [][]uint64 {
		a0, a1, b0, b1 := c.row(s.Q), c.row(s.Q), c.row(s.Q), c.row(s.Q)
		return func() [][]uint64 {
			d0, d1, d2 := c.poisoned(), c.poisoned(), c.poisoned()
			s.Tensor(d0, d1, d2, a0, a1, b0, b1)
			return [][]uint64{d0, d1, d2}
		}
	})},
	{name: "TensorSquare", draw: pointwise(func(c *kernelCase, s *ring.SubRing, _ []int) func() [][]uint64 {
		a0, a1 := c.row(s.Q), c.row(s.Q)
		return func() [][]uint64 {
			d0, d1, d2 := c.poisoned(), c.poisoned(), c.poisoned()
			s.TensorSquare(d0, d1, d2, a0, a1)
			return [][]uint64{d0, d1, d2}
		}
	})},
	{name: "MulScalarThenAdd", gathers: true, draw: pointwise(func(c *kernelCase, s *ring.SubRing, perm []int) func() [][]uint64 {
		x, acc, w := c.row(s.Q), c.row(s.Q), c.word(s.Q)
		return func() [][]uint64 {
			out := slices.Clone(acc)
			s.MulScalarThenAdd(x, perm, w, mathutil.ShoupPrecomp(w, s.Q), out)
			return [][]uint64{out}
		}
	})},
	{name: "SubThenMulScalar", draw: pointwise(func(c *kernelCase, s *ring.SubRing, _ []int) func() [][]uint64 {
		a, b, w := c.row(s.Q), c.row(s.Q), c.word(s.Q)
		return func() [][]uint64 {
			out := c.poisoned()
			s.SubThenMulScalar(a, b, w, mathutil.ShoupPrecomp(w, s.Q), out)
			return [][]uint64{out}
		}
	})},
	// Words below q, words below 2^52 (the vector kernel's widest
	// input), and in place.
	{name: "ReduceThenAddConst", draw: pointwise(func(c *kernelCase, s *ring.SubRing, _ []int) func() [][]uint64 {
		x, wide, k := c.row(s.Q), c.row(1<<52), c.word(s.Q)
		return func() [][]uint64 {
			out, outWide, inPlace := c.poisoned(), c.poisoned(), slices.Clone(x)
			s.ReduceThenAddConst(x, s.Q, k, out)
			s.ReduceThenAddConst(wide, 1<<52, k, outWide)
			s.ReduceThenAddConst(inPlace, s.Q, k, inPlace)
			return [][]uint64{out, outWide, inPlace}
		}
	})},
	{name: "ScaleAndEstimate", shapes: []int{1, 2, 3, 4, 5}, draw: drawEstimate},
	// ℓ_in·100 + ℓ_out: bases drawn from the class's primes, and the
	// vector kernel's term limit, ℓ_in = 4095 and one more.
	{name: "Extend", shapes: extendShapes(), draw: drawExtend},
	// ModUpDigit, ModDown, ModDownRescale and Rescale compose the
	// kernels above.
	{name: "Converter", draw: drawConverter},
	// prng's ChaCha8 epoch: shape 0 reads n raw words, shape 1 n words of
	// UniformSlice modulo the class's first prime.
	{name: "Epoch", shapes: []int{0, 1}, avx512f: true, draw: drawEpoch},
}

// drawEpoch draws a seed — all zero, all 0xff, random or a per-byte mix
// of the three — and reads the first n words of its stream and one more,
// which pins the position the call leaves the stream at. The lengths
// cross the epoch boundaries at 124, 248, … words.
func drawEpoch(t testing.TB, c *kernelCase) (func() [][]uint64, [][]uint64) {
	var seed [prng.SeedSize]byte
	for i := range seed {
		seed[i] = byte(c.word(256))
	}
	q := c.pool(t)[0]
	return func() [][]uint64 {
		s, out := prng.NewSource(seed), make([]uint64, c.n)
		if c.shape == 0 {
			for i := range out {
				out[i] = s.Uint64()
			}
		} else {
			s.UniformSlice(out, q)
		}
		return [][]uint64{out, {s.Uint64()}}
	}, nil
}

// drawKeyProduct draws GatherMulAccumulate's operands: β rows of digits,
// read as Montgomery-form words, and of both key halves. The reference is
// the strict per-digit composition on the canonical digits. Past 17
// words it runs around the tile boundary (255, 256) and over four tiles
// and a tail (1057); past 8 digits only at the boundary; the lane-limit
// sums at one length on the largest words.
func drawKeyProduct(t testing.TB, c *kernelCase) (func() [][]uint64, [][]uint64) {
	beta, boundary := c.shape, c.n == 255 || c.n == 256
	var runs bool
	switch {
	case beta > 65:
		runs = c.n == 9 && c.fill == fillMax
	case beta > 8:
		runs = boundary
	default:
		runs = c.n <= 17 || boundary || c.n == maxTileLength
	}
	if !runs {
		return nil, nil
	}
	return c.onLimbs(t, func(s *ring.SubRing, perm []int) (func() [][]uint64, [][]uint64) {
		d, b, a := c.rows(beta, s.Q), c.rows(beta, s.Q), c.rows(beta, s.Q)
		wantU, wantV := make([]uint64, c.n), make([]uint64, c.n)
		strictInnerProduct(s, d, b, a, perm, wantU, wantV)
		return func() [][]uint64 {
			u, v := c.poisoned(), c.poisoned()
			s.GatherMulAccumulate(d, b, a, perm, u, v)
			return [][]uint64{u, v}
		}, [][]uint64{wantU, wantV}
	})
}

// strictInnerProduct is the composition the fused key product replaces:
// per digit, take the canonical digit x·R⁻¹ of the Montgomery-form word
// x, materialize the gathered row, then a fully reduced multiply-add.
func strictInnerProduct(s *ring.SubRing, d, b, a [][]uint64, perm []int, u, v []uint64) {
	qNeg := mathutil.MontQNeg(s.Q)
	x := make([]uint64, len(u))
	for j := range d {
		for c := range x {
			src := c
			if perm != nil {
				src = perm[c]
			}
			x[c] = mathutil.MontReduce(0, d[j][src], s.Q, qNeg)
		}
		s.MulThenAddVec(b[j], x, u)
		s.MulThenAddVec(a[j], x, v)
	}
}

// drawEstimate draws a basis extension's first stage over ℓ = c.shape of
// the class's primes, from offset 3 of the source rows: the vector body
// against the scalar loop rns.ExtTable runs. It has no scalar body, so
// both runs call the vector one; the row is skipped where the class or
// the host has none.
func drawEstimate(t testing.TB, c *kernelCase) (func() [][]uint64, [][]uint64) {
	const off = 3
	l := c.shape
	q := c.pool(t)[:l]
	w, ws, inv := make([]uint64, l), make([]uint64, l), make([]float64, l)
	for i, qi := range q {
		w[i] = c.rng.Uint64N(qi)
		ws[i] = mathutil.ShoupPrecomp(w[i], qi)
		inv[i] = 1 / float64(qi)
	}
	e, ok := ring.NewVectorEstimate(q, w, ws, inv)
	if !ok {
		return nil, nil
	}
	src := make([][]uint64, l)
	want := makeLimbs(l+1, c.n)
	vf := make([]float64, c.n)
	for i, qi := range q {
		src[i] = append(make([]uint64, off), c.row(qi)...)
		for j := range c.n {
			y := mathutil.MulModShoup(src[i][off+j], w[i], ws[i], qi)
			want[i][j] = y
			vf[j] += float64(float64(y) * inv[i])
		}
	}
	for j, f := range vf {
		want[l][j] = uint64(f)
	}
	return func() [][]uint64 {
		out := make([][]uint64, l+1)
		for i := range out {
			out[i] = c.poisoned()
		}
		e.ScaleAndEstimate(src, off, out[:l], out[l])
		return out
	}, want
}

// extendShapes are Extend's bases, ℓ_in·100 + ℓ_out: one to six input
// limbs (the scalar stage 2 keeps up to four in registers) and twenty,
// into one and three output limbs; three into twenty; then the term
// limit.
func extendShapes() []int {
	var shapes []int
	for _, in := range []int{1, 2, 3, 4, 5, 6, 20} {
		shapes = append(shapes, 100*in+1, 100*in+3)
	}
	return append(shapes, 320, 100*ring.MaxLaneTerms+2, 100*(ring.MaxLaneTerms+1)+2)
}

// classTables caches, per class and Extend shape, the canonical and the
// Montgomery-out table (a fresh table allocates its tile scratch anew).
var classTables sync.Map // [2]int{class, shape} -> [2]*ExtTable

// laneTables are Extend's term-limit tables, ℓ_in = ring.MaxLaneTerms
// and one more into two limbs of CKKS primes, built once: each costs
// O(ℓ_in²) to build.
var laneTables = sync.OnceValues(func() (map[int]*ExtTable, error) {
	primes, err := mathutil.GenerateNTTPrimesNear(50, 4, ring.MaxLaneTerms+3)
	tabs := map[int]*ExtTable{}
	for l := ring.MaxLaneTerms; err == nil && l <= ring.MaxLaneTerms+1; l++ {
		tabs[l] = newExtTable(primes[:l], primes[l:l+2], false)
	}
	return tabs, err
})

// drawExtend draws a basis extension: a canonical table, run through the
// two-worker chunked path, and a Montgomery-out table (ModUp's), run
// serially, on the same input, against ExtendReference and R times it.
// Past 17 words it runs around the tile boundary and over two tiles and a
// tail. The bases are a shuffled draw from the class's primes, one per
// shape; the term-limit shapes run on CKKS primes at one length on the
// largest words, canonical only.
func drawExtend(t testing.TB, c *kernelCase) (func() [][]uint64, [][]uint64) {
	lIn, lOut := c.shape/100, c.shape%100
	if c.n > 17 && c.n < ExtendTile-1 || c.n > maxTileLength {
		return nil, nil
	}
	var tab, mont *ExtTable
	if lIn > classPoolSize {
		if modulusClasses[c.class].name != "2^50 ± k" || c.n != 17 || c.fill != fillMax {
			return nil, nil
		}
		tabs, err := laneTables()
		if err != nil {
			t.Fatal(err)
		}
		tab = tabs[lIn]
	} else {
		key := [2]int{c.class, c.shape}
		tabs, ok := classTables.Load(key)
		if !ok {
			pool := slices.Clone(c.pool(t))
			rand.New(rand.NewPCG(uint64(c.class), uint64(c.shape))).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			in, out := pool[:lIn], pool[lIn:lIn+lOut]
			tabs, _ = classTables.LoadOrStore(key, [2]*ExtTable{newExtTable(in, out, false), newExtTable(in, out, true)})
		}
		tab, mont = tabs.([2]*ExtTable)[0], tabs.([2]*ExtTable)[1]
	}
	src := make([][]uint64, lIn)
	for i, q := range tab.In {
		src[i] = c.row(q)
	}
	want := makeLimbs(lOut, c.n)
	tab.ExtendReference(src, want)
	if mont != nil {
		want = append(want, timesR(tab.Out, want)...)
	}
	return func() [][]uint64 {
		got := makeLimbs(lOut, c.n)
		extendParallel(tab, src, got, c.n, 2)
		if mont != nil {
			gotMont := makeLimbs(lOut, c.n)
			mont.Extend(src, gotMont)
			got = append(got, gotMont...)
		}
		return got
	}, want
}

// timesR returns R·x[j][c] mod out[j], R = 2^64: what a Montgomery-out
// table writes where a canonical one writes x.
func timesR(out []uint64, x [][]uint64) [][]uint64 {
	y := makeLimbs(len(x), len(x[0]))
	for j, p := range out {
		r := mathutil.MontR(p)
		for c, w := range x[j] {
			y[j][c] = mathutil.MulMod(w, r, p)
		}
	}
	return y
}

// classConverters caches, per class and degree, a Converter over a Q
// chain of five and a P basis of two of the class's primes.
var classConverters sync.Map // [2]int{class, degree} -> *Converter

// drawConverter runs the conversions on a ring of degree n (a power of
// two from 16, up to 512): ModUpDigit of digit [0, 2) at the top level,
// ModDown and ModDownRescale of its result, and Rescale of the input.
// Their words on the vector kernels must be the scalar kernels' words.
func drawConverter(t testing.TB, c *kernelCase) (func() [][]uint64, [][]uint64) {
	if c.n < 16 || c.n > 512 || c.n&(c.n-1) != 0 {
		return nil, nil
	}
	key := [2]int{c.class, c.n}
	conv, ok := classConverters.Load(key)
	if !ok {
		pool := c.pool(t)
		ringQ, err := ring.NewRing(c.n, pool[:5])
		if err != nil {
			t.Fatal(err)
		}
		ringP, err := ring.NewRing(c.n, pool[5:7])
		if err != nil {
			t.Fatal(err)
		}
		conv, _ = classConverters.LoadOrStore(key, NewConverter(ringQ, ringP))
	}
	cv := conv.(*Converter)
	levelQ := cv.RingQ.MaxLevel()
	a := cv.RingQ.NewPoly()
	for i, q := range cv.RingQ.Moduli {
		a.Coeffs[i] = c.row(q)
	}
	a.IsNTT = true
	return func() [][]uint64 {
		up := cv.NewPolyQP(levelQ)
		cv.ModUpDigit(levelQ, 0, 2, a, up, 1)
		down, merged, rescaled := cv.RingQ.NewPoly(), cv.RingQ.NewPoly(), cv.RingQ.NewPoly()
		cv.ModDown(levelQ, up, down, 1)
		cv.ModDownRescale(levelQ, up, merged, 1)
		cv.Rescale(levelQ, a, rescaled, 1)
		return slices.Concat(up.Q.Coeffs, up.P.Coeffs, down.Coeffs, merged.Coeffs, rescaled.Coeffs)
	}, nil
}

// checkKernel draws row's operands for c and runs the call on the scalar
// kernels and, where this host has AVX512F, on the kernels each
// constructor chose. Each run must write the row's reference or, without
// one, the scalar run's words. It reports whether the row applies to c.
func checkKernel(t testing.TB, row kernelRow, c *kernelCase) bool {
	t.Helper()
	call, want := row.draw(t, c)
	if call == nil {
		return false
	}
	defer simd.UseVectorKernels(true)
	simd.UseVectorKernels(false)
	for _, kernel := range []string{"scalar", "vector"} {
		if kernel == "vector" {
			if !simd.AVX512F() { // no vector body of any kernel
				break
			}
			simd.UseVectorKernels(true)
		}
		got := call()
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s %s kernels, %v: %d outputs, want %d", row.name, kernel, c, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s %s kernels, %v: output %d word %d = %d, want %d",
						row.name, kernel, c, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	return true
}

// TestKernelsMatch holds every kernel row, on the scalar and on the
// vector kernels, to its reference or the one body to the other, word
// for word, on every modulus class, length, fill, gather and shape, into
// poisoned destinations. It logs, per row, the cases each class ran and
// which kernels they ran on.
func TestKernelsMatch(t *testing.T) {
	for _, row := range kernelRows {
		t.Run(row.name, func(t *testing.T) {
			var ran []string
			for ci, class := range modulusClasses {
				c := &kernelCase{class: ci, rng: rand.New(rand.NewPCG(36, uint64(ci)))}
				cases := 0
				for _, c.n = range kernelLengths {
					for c.fill = range kernelFills {
						for c.gather = range kernelGathers {
							if c.gather != gatherIdentity && !row.gathers {
								break
							}
							for _, c.shape = range row.shapeList() {
								if checkKernel(t, row, c) {
									cases++
								}
							}
						}
					}
				}
				_, vec := ring.NewVectorMont(c.pool(t)[0])
				if row.avx512f {
					vec = simd.AVX512F()
				}
				kernels := "scalar"
				if vec {
					kernels = "scalar and vector"
				}
				ran = append(ran, fmt.Sprintf("%s %d on %s", class.name, cases, kernels))
			}
			t.Logf("%s matched: %s", row.name, strings.Join(ran, "; "))
		})
	}
}

// FuzzKernels draws one case of one row: the row, the modulus class, the
// length, the fill, the gather and the row's shape by index, and the
// words and the random gather from seed. The seeds include the corpora
// of FuzzGatherMulAccumulate, FuzzPointwiseKernels and FuzzExtend mapped
// onto the table's cases.
func FuzzKernels(f *testing.F) {
	add := func(seed uint64, row, class string, n int, fill, gather string, shape int) {
		idx := func(i int) uint8 {
			if i < 0 {
				f.Fatalf("seed %s/%s/n=%d/%s/%s/%d names no case", row, class, n, fill, gather, shape)
			}
			return uint8(i)
		}
		r := idx(slices.IndexFunc(kernelRows, func(k kernelRow) bool { return k.name == row }))
		f.Add(seed, r, idx(slices.IndexFunc(modulusClasses, func(m modulusClass) bool { return m.name == class })),
			idx(slices.Index(kernelLengths, n)), idx(slices.Index(kernelFills, fill)),
			idx(slices.Index(kernelGathers, gather)), idx(slices.Index(kernelRows[r].shapeList(), shape)))
	}
	// The key product's corpus, on the limbs from 2^49 up, and the 40-
	// and 45-bit vector key products.
	add(1, "GatherMulAccumulate", "2^50 − k", 255, "uniform", "identity", 3)
	add(2, "GatherMulAccumulate", "2^50 ± k", 256, "max", "rot1", 7)
	add(3, "GatherMulAccumulate", "2^51 − k", 256, "max", "conjugate", 65)
	add(^uint64(0), "GatherMulAccumulate", "2^50 − k", 17, "mix", "random", 1)
	add(0xdeadbeefcafe, "GatherMulAccumulate", "2^51 − k", 255, "mix", "random", 64)
	add(5, "GatherMulAccumulate", "40-bit", 1057, "max", "random", 8)
	add(6, "GatherMulAccumulate", "45-bit", 9, "max", "identity", ring.MaxLaneTerms)
	// One case for each row those corpora do not reach.
	add(7, "NTT", "2^51 − k", 4096, "uniform", "identity", 0)
	add(8, "INTT", "2^50 ± k", 512, "max", "identity", 0)
	add(9, "TensorSquare", "2^51 − k", 16, "max", "identity", 0)
	add(10, "ScaleAndEstimate", "2^51 − k", 1057, "mix", "identity", 5)
	add(11, "Converter", "2^50 ± k", 256, "uniform", "identity", 0)
	// The pointwise kernels' corpus.
	add(1, "Tensor", "2^50 ± k", 17, "uniform", "identity", 0)
	add(2, "MulScalarThenAdd", "2^51 − k", 8, "uniform", "random", 0)
	add(3, "ReduceThenAddConst", "30-bit", 1057, "max", "identity", 0)
	add(4, "SubThenMulScalar", "45-bit", 513, "mix", "identity", 0)
	// The basis extension's corpus.
	add(1, "Extend", "2^50 ± k", 1, "uniform", "identity", 320)
	add(2, "Extend", "2^51 − k", 513, "max", "identity", 403)
	add(3, "Extend", "2^50 ± k", 1057, "max", "identity", 2003)
	add(^uint64(0), "Extend", "2^51 − k", 1, "mix", "identity", 101)
	add(0xdeadbeefcafe, "Extend", "2^50 ± k", 7, "mix", "identity", 603)
	// The epoch: raw words across two epoch boundaries, and a key limb.
	add(12, "Epoch", "30-bit", 255, "mix", "identity", 0)
	add(13, "Epoch", "2^50 ± k", 4096, "uniform", "identity", 1)
	f.Fuzz(func(t *testing.T, seed uint64, row, class, length, fill, gather, shape uint8) {
		r := kernelRows[int(row)%len(kernelRows)]
		c := &kernelCase{
			class: int(class) % len(modulusClasses),
			n:     kernelLengths[int(length)%len(kernelLengths)],
			fill:  int(fill) % len(kernelFills),
			rng:   rand.New(rand.NewPCG(seed, 36)),
		}
		if r.gathers {
			c.gather = int(gather) % len(kernelGathers)
		}
		shapes := r.shapeList()
		c.shape = shapes[int(shape)%len(shapes)]
		if !checkKernel(t, r, c) {
			t.Skipf("%s does not run at %v", r.name, c)
		}
	})
}

// choiceName names a constructor's choice of kernels in the selection
// tests' logs.
var choiceName = map[bool]string{false: "scalar", true: "vector (AVX-512 IFMA)"}

// TestKernelSelection pins, and logs, which kernels the constructors
// choose: with the CPU probe's vector kernels, every modulus below 2^51
// chooses them and every other the scalar ones. ring.NewVectorMont is
// the choice a sub-ring makes for its NTT, key product and pointwise
// kernels; an extension table chooses for its two stages. It logs the
// probe's outcome, the ChaCha8 epoch kernel's body (vector wherever the
// CPU has AVX512F) and each class's choices; TestKeyProductKernelSelection
// logs those of the benchmark workloads' chains.
func TestKernelSelection(t *testing.T) {
	host := simd.UseVectorKernels(true)
	if host {
		t.Log("CPU probe: AVX512F, AVX512DQ, AVX512IFMA and OS-saved ZMM state present; vector kernels for q < 2^51")
	} else {
		t.Log("CPU probe: AVX512F, AVX512DQ, AVX512IFMA or OS-saved ZMM state missing (or not amd64); scalar kernels only")
	}
	if simd.AVX512F() {
		t.Log("CPU probe: AVX512F and OS-saved ZMM state present; the ChaCha8 epoch runs vector (AVX-512F, 16 blocks per call)")
	} else {
		t.Log("CPU probe: AVX512F or OS-saved ZMM state missing (or not amd64); the ChaCha8 epoch runs scalar")
	}
	if host && !simd.AVX512F() {
		t.Error("the probe reports IFMA without AVX512F")
	}
	pools, err := classPools()
	if err != nil {
		t.Fatal(err)
	}
	for i, class := range modulusClasses {
		if class.near && (pools[i][0] < 1<<50) == (pools[i][1] < 1<<50) {
			t.Errorf("%s: the first two primes do not straddle 2^50: the kernel rows miss a vector NTT loop's edge", class.name)
		}
		for _, q := range pools[i][:2] {
			_, vec := ring.NewVectorMont(q)
			if want := host && q < 1<<51; vec != want {
				t.Errorf("%s: q = %s chooses the vector kernels = %v, want %v", class.name, modulusName(q), vec, want)
			}
			t.Logf("%s: q = %s: NTT, key product and pointwise kernels %s", class.name, modulusName(q), choiceName[vec])
		}
		tab := newExtTable(pools[i][:6], pools[i][6:8], true)
		if want := host && pools[i][0] < 1<<51; tab.vector != want {
			t.Errorf("%s: Extend ℓ=6→2 chooses the vector stages = %v, want %v", class.name, tab.vector, want)
		}
		t.Logf("%s: Extend ℓ=6→2: %s", class.name, choiceName[tab.vector])
	}
}

// TestKeyProductKernelSelection pins, and logs, the kernels of every
// modulus and basis pair the benchmark workloads build — their CKKS Q
// and P chains at logN 13, 12 and 9, drawn as ckks.NewParameters draws
// them: on a host with the vector kernels the NTT, the key product, the
// pointwise kernels and both stages of every extension their converters
// run, canonical and Montgomery-out, choose them; elsewhere every one
// chooses the scalar kernels.
func TestKeyProductKernelSelection(t *testing.T) {
	host := simd.UseVectorKernels(true)
	for _, w := range []struct {
		name       string
		logN       int
		logQ, logP []int
	}{
		{"mult_chain", 13, []int{50, 40, 40, 40, 40, 40, 40, 40, 40}, []int{50, 50, 50}},
		{"matvec_hoisted", 12, []int{50, 40, 40, 40, 40, 40}, []int{50, 50}},
		{"bootstrap", 9, append([]int{48}, slices.Repeat([]int{40}, 16)...), []int{50, 50, 50}},
	} {
		count := map[int]int{}
		for _, b := range append(slices.Clone(w.logQ), w.logP...) {
			count[b]++
		}
		pool := map[int][]uint64{}
		for _, b := range slices.Sorted(maps.Keys(count)) {
			ps, err := mathutil.GenerateNTTPrimesNear(b, w.logN, count[b])
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range ps {
				if _, vec := ring.NewVectorMont(q); vec != host {
					t.Errorf("%s: q = %s chooses the vector kernels = %v, want %v", w.name, modulusName(q), vec, host)
				}
			}
			t.Logf("%s logN=%d: %d primes near 2^%d, %s to %s: NTT, key product and pointwise kernels %s",
				w.name, w.logN, len(ps), b, modulusName(slices.Min(ps)), modulusName(slices.Max(ps)), choiceName[host])
			pool[b] = ps
		}
		chain := func(sizes []int) *ring.Ring {
			moduli := make([]uint64, len(sizes))
			for i, b := range sizes {
				moduli[i], pool[b] = pool[b][0], pool[b][1:]
			}
			r, err := ring.NewRing(1<<w.logN, moduli)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		pairs := converterBasisPairs(chain(w.logQ), chain(w.logP))
		for _, p := range pairs {
			for _, montOut := range []bool{false, true} {
				if tab := newExtTable(p.in, p.out, montOut); tab.vector != host {
					t.Errorf("%s: %s ℓ=%d→%d montOut=%v chooses the vector stages = %v, want %v",
						w.name, p.name, len(p.in), len(p.out), montOut, tab.vector, host)
				}
			}
		}
		t.Logf("%s: %d basis pairs: Extend %s", w.name, len(pairs), choiceName[host])
	}
}

// modulusName writes q as its distance from the nearest power of two,
// e.g. 2^50 + 16385.
func modulusName(q uint64) string {
	e := bits.Len64(q) // 2^(e−1) ≤ q < 2^e
	if above := q - 1<<(e-1); above < 1<<e-q {
		return fmt.Sprintf("2^%d + %d", e-1, above)
	}
	return fmt.Sprintf("2^%d − %d", e, uint64(1)<<e-q)
}
