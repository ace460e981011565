package rns

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mathutil"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/simd"
)

// makeLimbs allocates an ℓ×n limb matrix.
func makeLimbs(l, n int) [][]uint64 {
	m := make([][]uint64, l)
	for i := range m {
		m[i] = make([]uint64, n)
	}
	return m
}

// fillResidues writes x mod q for each modulus/coefficient.
func fillResidues(moduli []uint64, xs []*big.Int, dst [][]uint64) {
	for i, q := range moduli {
		bq := new(big.Int).SetUint64(q)
		for c, x := range xs {
			dst[i][c] = new(big.Int).Mod(x, bq).Uint64()
		}
	}
}

// basisPair is one input → output basis of a basis extension.
type basisPair struct {
	name    string
	in, out []uint64
}

// converterBasisPairs lists every basis pair a Converter over (ringQ,
// ringP) ever extends between: all ModUp digit slices [start, end) of the
// Q chain at every level into the rest of Q and P, the ModDown P → Q pair
// at every level, and the merged division's {P, q_ℓ} → Q[:ℓ] at every
// level ℓ ≥ 1.
func converterBasisPairs(ringQ, ringP *ring.Ring) []basisPair {
	nQ := len(ringQ.Moduli)
	var pairs []basisPair
	for levelQ := 0; levelQ < nQ; levelQ++ {
		for start := 0; start <= levelQ; start++ {
			for end := start + 1; end <= levelQ+1; end++ {
				var out []uint64
				for i := 0; i <= levelQ; i++ {
					if i >= start && i < end {
						continue
					}
					out = append(out, ringQ.Moduli[i])
				}
				out = append(out, ringP.Moduli...)
				pairs = append(pairs, basisPair{
					name: "modup",
					in:   ringQ.Moduli[start:end],
					out:  out,
				})
			}
		}
	}
	for levelQ := 0; levelQ < nQ; levelQ++ {
		pairs = append(pairs, basisPair{name: "moddown", in: ringP.Moduli, out: ringQ.Moduli[:levelQ+1]})
	}
	for levelQ := 1; levelQ < nQ; levelQ++ {
		in := append(append([]uint64(nil), ringP.Moduli...), ringQ.Moduli[levelQ])
		pairs = append(pairs, basisPair{name: "moddown-rescale", in: in, out: ringQ.Moduli[:levelQ]})
	}
	return pairs
}

// requireEqualLimbs fails unless got and want hold the same words.
func requireEqualLimbs(t *testing.T, what string, got, want [][]uint64) {
	t.Helper()
	for j := range want {
		for c := range want[j] {
			if got[j][c] != want[j][c] {
				t.Fatalf("%s: Extend[%d][%d] = %d, reference %d", what, j, c, got[j][c], want[j][c])
			}
		}
	}
}

// converterLengths are the words per call checkConverterBases runs:
// inside one eight-word group, off the groups, either side of one
// extension tile, and two tiles and a tail.
var converterLengths = []int{1, 7, ExtendTile - 1, ExtendTile + 1, maxTileLength}

// checkConverterBases runs kernelRows' Extend check on every basis pair
// a Converter builds over a Q chain of six and a P basis of two of each
// modulus class's primes — ModUp's digit slices at every level (with
// montOut only those, the tables ModUpDigit extends with), ModDown's and
// the merged division's — at converterLengths on every fill, with 1, 2
// and GOMAXPROCS workers, each run against ExtendReference (montOut: R
// times it), on the scalar and the vector kernels. It logs, per class,
// the pairs and the kernels that matched.
func checkConverterBases(t *testing.T, montOut bool) {
	workers := slices.Compact(slices.Sorted(slices.Values([]int{1, 2, runtime.GOMAXPROCS(0)})))
	host := simd.UseVectorKernels(true)
	for ci, class := range modulusClasses {
		c := &kernelCase{class: ci, rng: rand.New(rand.NewPCG(36, uint64(ci)))}
		pool := c.pool(t)
		ringQ, err := ring.NewRing(16, pool[:6])
		if err != nil {
			t.Fatal(err)
		}
		ringP, err := ring.NewRing(16, pool[6:8])
		if err != nil {
			t.Fatal(err)
		}
		pairs := 0
		for _, p := range converterBasisPairs(ringQ, ringP) {
			if montOut && p.name != "modup" {
				continue
			}
			pairs++
			tab := newExtTable(p.in, p.out, montOut)
			row := kernelRow{name: fmt.Sprintf("Extend %s ℓ=%d→%d montOut=%v", p.name, len(p.in), len(p.out), montOut),
				draw: func(_ testing.TB, c *kernelCase) (func() [][]uint64, [][]uint64) {
					src := make([][]uint64, len(p.in))
					for i, q := range p.in {
						src[i] = c.row(q)
					}
					want := makeLimbs(len(p.out), c.n)
					tab.ExtendReference(src, want)
					if montOut {
						want = timesR(p.out, want)
					}
					return func() [][]uint64 {
						var got [][]uint64
						for _, w := range workers {
							out := makeLimbs(len(p.out), c.n)
							extendParallel(tab, src, out, c.n, w)
							got = append(got, out...)
						}
						return got
					}, slices.Repeat(want, len(workers))
				}}
			for _, c.n = range converterLengths {
				for c.fill = range kernelFills {
					checkKernel(t, row, c)
				}
			}
		}
		t.Logf("%s: %d basis pairs matched on %s", class.name, pairs, choiceName[host && pool[0] < 1<<51])
	}
}

// TestExtendMatchesReferenceAllBases demands the tiled lazy Extend, on
// the scalar and on the vector stages 1 and 2, write ExtendReference's
// words on every basis pair the Converter ever builds, for every modulus
// class, at worker counts {1, 2, GOMAXPROCS}, over lengths that straddle
// the tile and the eight-word groups, on uniform, all-zero, all-(q_i − 1)
// and mixed words: x = 0 seeds the accumulator with v = 0, and x = Q − 1
// puts frac(Σ y_i/q_i) = x/Q against 1, the float-slack edge of the
// estimate. The vector kernel's term limit is the Extend row of
// TestKernelsMatch.
func TestExtendMatchesReferenceAllBases(t *testing.T) {
	checkConverterBases(t, false)
}

// TestExtendMontOutIsRTimesReference demands a Montgomery-out table (the
// ones ModUpDigit extends with), scalar and vector, write exactly
// R·ExtendReference on every ModUp basis pair of every modulus class.
func TestExtendMontOutIsRTimesReference(t *testing.T) {
	checkConverterBases(t, true)
}

// TestExtendFoldAt61Bits runs the wide stage 2 where its fold guard
// binds: 61-bit input and output moduli allow MontMaxTerms = 7 products
// per sum, so ℓ = 7 fills one sum exactly, ℓ = 8 folds once between its
// two blocks of four, and ℓ = 9 folds and leaves a one-limb tail. Inputs
// are all-(q_i − 1) (the largest products) and uniform; canonical tables
// must equal ExtendReference and Montgomery-out tables R times it.
func TestExtendFoldAt61Bits(t *testing.T) {
	primes, err := mathutil.GenerateNTTPrimes(61, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if k := mathutil.MontMaxTerms(primes[0]); k != 7 {
		t.Fatalf("MontMaxTerms(61-bit) = %d, want 7: the cases below no longer straddle the fold", k)
	}
	src := fixedSource()
	const n = 2*ExtendTile + 5
	for _, l := range []int{7, 8, 9} {
		inP, outP := primes[:l], primes[l:]
		for _, max := range []bool{true, false} {
			in := makeLimbs(l, n)
			for i, q := range inP {
				for c := range in[i] {
					in[i][c] = q - 1
					if !max {
						in[i][c] = src.Uint64() % q
					}
				}
			}
			want, got := makeLimbs(len(outP), n), makeLimbs(len(outP), n)
			NewExtTable(inP, outP).ExtendReference(in, want)
			NewExtTable(inP, outP).Extend(in, got)
			requireEqualLimbs(t, fmt.Sprintf("ℓ=%d max=%v", l, max), got, want)
			newExtTable(inP, outP, true).Extend(in, got)
			requireEqualLimbs(t, fmt.Sprintf("ℓ=%d max=%v Montgomery-out", l, max), got, timesR(outP, want))
		}
	}
}

// TestExtTableNegatedCorrection pins the seeded correction table on every
// basis shape the converter builds: entry k for output modulus p_j is the
// canonical residue of −k·Q·R^e, i.e. entry + k·Q·R^e ≡ 0 (mod p_j), for
// every k ∈ [0, ℓ] the overflow estimate can take, with R = 2^64 and e = 1
// for a canonical table, 2 for a Montgomery-out one.
func TestExtTableNegatedCorrection(t *testing.T) {
	ringQ, ringP := testRings(t, 32, 6, 2)
	for _, p := range converterBasisPairs(ringQ, ringP) {
		for e, montOut := range []bool{false, true} {
			tab := newExtTable(p.in, p.out, montOut)
			rq := new(big.Int).Mul(bigProduct(p.in), new(big.Int).Lsh(big.NewInt(1), 64*uint(e+1)))
			for j, pj := range p.out {
				row := tab.vqOut[j]
				if len(row) != len(p.in)+1 {
					t.Fatalf("%s ℓ=%d→%d: correction row %d has %d entries, want ℓ+1 = %d",
						p.name, len(p.in), len(p.out), j, len(row), len(p.in)+1)
				}
				bp := new(big.Int).SetUint64(pj)
				for k, v := range row {
					sum := new(big.Int).Mul(rq, big.NewInt(int64(k)))
					sum.Add(sum, new(big.Int).SetUint64(v))
					if v >= pj || sum.Mod(sum, bp).Sign() != 0 {
						t.Fatalf("%s ℓ=%d→%d montOut=%v: vqOut[%d][%d] = %d is not −%d·Q·R^%d mod %d",
							p.name, len(p.in), len(p.out), montOut, j, k, v, k, e+1, pj)
					}
				}
			}
		}
	}
}

// TestExtendBigIntProperty pits the production kernel against an exact
// big.Int CRT reference on randomized bases, deliberately planting
// coefficients adjacent to the Q-wraparound boundary. Away from the
// boundary the conversion must be exact; within float64 slack of the
// boundary the overflow estimate v = floor(Σ y_i/q_i) may be off by one,
// which shifts the output by exactly ±Q — the documented HPS slack. Any
// other deviation fails.
func TestExtendBigIntProperty(t *testing.T) {
	src := fixedSource()
	cases := []struct {
		inBits, nIn, outBits, nOut int
	}{
		{30, 4, 31, 3},
		{40, 6, 41, 2},
		{50, 3, 52, 4},
		{59, 5, 60, 3},
		{28, 1, 45, 2}, // single-limb input: v is always 0, conversion exact
	}
	for _, tc := range cases {
		inPrimes, err := mathutil.GenerateNTTPrimes(tc.inBits, 5, tc.nIn)
		if err != nil {
			t.Fatal(err)
		}
		outPrimes, err := mathutil.GenerateNTTPrimes(tc.outBits, 5, tc.nOut)
		if err != nil {
			t.Fatal(err)
		}
		tab := NewExtTable(inPrimes, outPrimes)
		bigQ := bigProduct(inPrimes)

		// Coefficients: a batch of uniform values with the wraparound
		// neighborhood spliced in at both ends of [0, Q).
		var xs []*big.Int
		for _, d := range []int64{1, 2, 3, 17} {
			xs = append(xs, new(big.Int).Sub(bigQ, big.NewInt(d))) // Q − d
			xs = append(xs, big.NewInt(d-1))                       // 0, 1, 2, 16
		}
		for len(xs) < 600 {
			x := new(big.Int).SetUint64(src.Uint64())
			x.Mul(x, new(big.Int).SetUint64(src.Uint64()))
			x.Mod(x, bigQ)
			xs = append(xs, x)
		}
		n := len(xs)
		in := makeLimbs(len(inPrimes), n)
		fillResidues(inPrimes, xs, in)
		got := makeLimbs(len(outPrimes), n)
		tab.Extend(in, got)

		// The kernel must also agree with its scalar oracle bit-for-bit on
		// these hostile inputs (identical float summation order ⇒ identical
		// rounding of v).
		ref := makeLimbs(len(outPrimes), n)
		tab.ExtendReference(in, ref)
		for j := range got {
			for c := range got[j] {
				if got[j][c] != ref[j][c] {
					t.Fatalf("%d/%d-bit basis: Extend[%d][%d] = %d differs from reference %d",
						tc.inBits, tc.outBits, j, c, got[j][c], ref[j][c])
				}
			}
		}

		// Boundary slack: frac(Σ y_i/q_i) = x/Q, so only coefficients with
		// x/Q within float noise of 0 or 1 may round v off by one.
		const eps = 1e-9
		qf, _ := new(big.Float).SetInt(bigQ).Float64()
		for c, x := range xs {
			xf, _ := new(big.Float).SetInt(x).Float64()
			frac := xf / qf
			nearBoundary := frac < eps || frac > 1-eps
			for j, p := range outPrimes {
				bp := new(big.Int).SetUint64(p)
				exact := new(big.Int).Mod(x, bp).Uint64()
				if got[j][c] == exact {
					continue
				}
				if !nearBoundary {
					t.Fatalf("%d/%d-bit basis: coeff %d (frac %g) mod %d: got %d, want exact %d",
						tc.inBits, tc.outBits, c, frac, p, got[j][c], exact)
				}
				up := new(big.Int).Add(x, bigQ)
				down := new(big.Int).Sub(x, bigQ)
				upMod := new(big.Int).Mod(up, bp).Uint64()
				downMod := new(big.Int).Mod(down, bp).Uint64()
				if got[j][c] != upMod && got[j][c] != downMod {
					t.Fatalf("%d/%d-bit basis: boundary coeff %d mod %d: got %d, want %d or %d (x±Q)",
						tc.inBits, tc.outBits, c, p, got[j][c], upMod, downMod)
				}
			}
		}
	}
}

// TestExtendEmptyInput pins the degenerate contract: extending from an
// empty basis zeroes the destination.
func TestExtendEmptyInput(t *testing.T) {
	outPrimes, err := mathutil.GenerateNTTPrimes(31, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewExtTable(nil, outPrimes)
	dst := makeLimbs(2, 16)
	for j := range dst {
		for c := range dst[j] {
			dst[j][c] = 7
		}
	}
	tab.Extend(nil, dst)
	for j := range dst {
		for c := range dst[j] {
			if dst[j][c] != 0 {
				t.Fatalf("empty-basis Extend left dst[%d][%d] = %d", j, c, dst[j][c])
			}
		}
	}
}

// TestTableCacheStructuralKey checks the structural key dedupes and
// separates tables exactly as the old string key did.
func TestTableCacheStructuralKey(t *testing.T) {
	ringQ, ringP := testRings(t, 32, 4, 2)
	conv := NewConverter(ringQ, ringP)
	t1 := conv.table(ringQ.Moduli[0:2], ringP.Moduli, false)
	t2 := conv.table(ringQ.Moduli[0:2], ringP.Moduli, false)
	if t1 != t2 {
		t.Error("identical bases produced distinct cached tables")
	}
	if conv.table(ringQ.Moduli[0:2], ringP.Moduli, true) == t1 {
		t.Error("a Montgomery-out table shares a canonical table's cache entry")
	}
	t3 := conv.table(ringQ.Moduli[1:3], ringP.Moduli, false)
	if t3 == t1 {
		t.Error("distinct bases share a cached table")
	}
	t4 := conv.table(ringQ.Moduli[0:3], ringP.Moduli, false)
	if t4 == t1 || t4 == t3 {
		t.Error("length-differing bases share a cached table")
	}
}

// TestExtendCounters checks the converter feeds the rns.extend counters
// once per basis extension.
func TestExtendCounters(t *testing.T) {
	ringQ, ringP := testRings(t, 32, 4, 2)
	conv := NewConverter(ringQ, ringP)
	rec := obs.NewRecorder()
	conv.SetRecorder(rec)
	src := fixedSource()
	levelQ := ringQ.MaxLevel()

	aQ := ringQ.NewPoly()
	ringQ.SampleUniform(src, aQ)
	aQ.IsNTT = true
	up := conv.NewPolyQP(levelQ)
	conv.ModUpDigit(levelQ, 0, 2, aQ, up, 1)
	down := ringQ.NewPoly()
	conv.ModDown(levelQ, up, down, 1)

	if got := rec.Counter("rns.extend"); got != 2 {
		t.Errorf("rns.extend = %d after one ModUp and one ModDown, want 2", got)
	}
	if got := rec.Counter("rns.extend.coeffs"); got != uint64(2*ringQ.N) {
		t.Errorf("rns.extend.coeffs = %d, want %d", got, 2*ringQ.N)
	}
}

// FuzzExtend draws one case of TestKernelsMatch's Extend row on a fuzzed
// basis, where FuzzKernels draws only the row's shapes: 1–20 input and
// 1–20 output limbs shuffled from one class's primes, by index the
// class, the length and the fill, and the words from seed.
func FuzzExtend(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0), uint8(0), uint8(2), uint8(16))
	f.Add(uint64(2), uint8(5), uint8(21), uint8(2), uint8(3), uint8(13))
	f.Add(uint64(3), uint8(4), uint8(22), uint8(2), uint8(19), uint8(19))
	f.Add(^uint64(0), uint8(5), uint8(0), uint8(3), uint8(0), uint8(0))
	f.Add(uint64(0xdeadbeefcafe), uint8(4), uint8(6), uint8(3), uint8(7), uint8(2))
	extend := kernelRow{name: "Extend", draw: drawExtend}
	f.Fuzz(func(t *testing.T, seed uint64, class, length, fill, in, out uint8) {
		c := &kernelCase{
			class: int(class) % len(modulusClasses),
			n:     kernelLengths[int(length)%len(kernelLengths)],
			fill:  int(fill) % len(kernelFills),
			shape: 100*(1+int(in)%20) + 1 + int(out)%20,
			rng:   rand.New(rand.NewPCG(seed, 36)),
		}
		if !checkKernel(t, extend, c) {
			t.Skipf("Extend does not run at %v", c)
		}
	})
}
