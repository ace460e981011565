package rns

import (
	"fmt"
	"maps"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/mathutil"
	"repro/internal/obs"
	"repro/internal/ring"
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

// modulusClass is one family of NTT primes the basis-change kernels are
// tested on.
type modulusClass struct {
	name string
	bits int
	near bool // GenerateNTTPrimesNear (alternating around 2^bits) instead of the largest below 2^bits
}

// modulusClasses are the classes the workloads build, plus the edges of
// the vector stage 2: 40- and 45-bit primes, the CKKS primes alternating
// around 2^50, and the largest NTT primes below 2^51, where the lane
// sums and the close have the least headroom.
var modulusClasses = []modulusClass{
	{"40-bit", 40, false},
	{"45-bit", 45, false},
	{"2^50 ± k", 50, true},
	{"2^51 − k", 51, false},
}

// classRings builds a Q ring of nQ and a P ring of nP distinct primes of
// class c at degree n.
func classRings(t testing.TB, c modulusClass, n, nQ, nP int) (*ring.Ring, *ring.Ring) {
	t.Helper()
	logN := bits.Len(uint(n)) - 1
	gen := mathutil.GenerateNTTPrimes
	if c.near {
		gen = mathutil.GenerateNTTPrimesNear
	}
	primes, err := gen(c.bits, logN, nQ+nP)
	if err != nil {
		t.Fatal(err)
	}
	ringQ, err := ring.NewRing(n, primes[:nQ])
	if err != nil {
		t.Fatal(err)
	}
	ringP, err := ring.NewRing(n, primes[nQ:])
	if err != nil {
		t.Fatal(err)
	}
	return ringQ, ringP
}

// withExtendKernels runs f once per kernel pair of tab: "scalar",
// then "vector" when newExtTable chose it (IFMA on this host, every
// modulus below 2^51, ℓ ≤ ring.MaxLaneTerms). It returns the kernels
// that ran.
func withExtendKernels(tab *ExtTable, f func(kernel string)) []string {
	chosen := tab.ifma
	defer func() { tab.ifma = chosen }()
	tab.ifma = false
	f("scalar")
	if !chosen {
		return []string{"scalar"}
	}
	tab.ifma = true
	f("vector")
	return []string{"scalar", "vector"}
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

// TestExtendMatchesReferenceAllBases demands the tiled lazy kernel, with
// the scalar and the vector stages 1 and 2, be bit-identical to the
// retained scalar oracle on every basis pair the Converter ever builds,
// for every modulus class, at worker counts {1, 2, GOMAXPROCS}, over
// coefficient counts that straddle the tile boundary and the vector
// kernels' eight- and sixteen-word groups. Besides uniform residues it feeds all-zero and all-(q_i − 1)
// inputs, the two ends of [0, Q): x = 0 seeds the accumulator with v = 0,
// and x = Q − 1 puts frac(Σ y_i/q_i) = x/Q against 1, the float-slack
// edge of the estimate, which the vector stage 1 must floor as the
// scalar one does. Last, it runs the vector kernel's term limit:
// ℓ = ring.MaxLaneTerms input limbs still run the vector stages, one
// more hands the extension to the scalar kernels.
func TestExtendMatchesReferenceAllBases(t *testing.T) {
	const nQ, nP = 6, 2
	src := fixedSource()
	fills := []struct {
		name string
		val  func(q uint64) uint64
	}{
		{"uniform", func(q uint64) uint64 { return src.Uint64() % q }},
		{"zero", func(uint64) uint64 { return 0 }},
		{"max", func(q uint64) uint64 { return q - 1 }},
	}

	workerCounts := slices.Compact(slices.Sorted(slices.Values([]int{1, 2, runtime.GOMAXPROCS(0)})))
	sizes := []int{1, 7, 255, ExtendTile - 1, ExtendTile, ExtendTile + 1, 2*ExtendTile + 33}
	check := func(what string, tab *ExtTable, in [][]uint64, n int, workers []int) []string {
		want := makeLimbs(len(tab.Out), n)
		tab.ExtendReference(in, want)
		return withExtendKernels(tab, func(kernel string) {
			for _, w := range workers {
				got := makeLimbs(len(tab.Out), n)
				extendParallel(tab, in, got, n, w)
				requireEqualLimbs(t, fmt.Sprintf("%s %s kernel ℓ=%d→%d n=%d workers=%d",
					what, kernel, len(tab.In), len(tab.Out), n, w), got, want)
			}
		})
	}
	for _, class := range modulusClasses {
		ringQ, ringP := classRings(t, class, 32, nQ, nP)
		var ran []string
		pairs := converterBasisPairs(ringQ, ringP)
		for _, fill := range fills {
			for _, n := range sizes {
				for _, p := range pairs {
					tab := NewExtTable(p.in, p.out)
					in := makeLimbs(len(p.in), n)
					for i, q := range p.in {
						for c := range in[i] {
							in[i][c] = fill.val(q)
						}
					}
					ran = check(class.name+" "+fill.name+" "+p.name, tab, in, n, workerCounts)
				}
			}
		}
		t.Logf("%s: %s stages 1 and 2 matched the reference on %d basis pairs", class.name, strings.Join(ran, " and "), len(pairs))
	}

	primes, err := mathutil.GenerateNTTPrimesNear(50, 4, ring.MaxLaneTerms+3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 17
	for _, l := range []int{ring.MaxLaneTerms, ring.MaxLaneTerms + 1} {
		tab := NewExtTable(primes[:l], primes[l:l+2])
		in := makeLimbs(l, n)
		for i, q := range tab.In {
			for c := range in[i] {
				in[i][c] = q - 1
				if c%2 == 1 {
					in[i][c] = src.Uint64() % q
				}
			}
		}
		ran := check("term limit", tab, in, n, []int{1})
		t.Logf("ℓ = %d input limbs: %s stages 1 and 2 matched the reference", l, strings.Join(ran, " and "))
	}
}

// TestKeyProductKernelSelection pins the vector kernels' reach: where
// the CPU has IFMA (probed on a 45-bit prime), every modulus the
// benchmark workloads build — their CKKS Q and P chains at logN 13, 12
// and 9, drawn as ckks.NewParameters draws them — selects the vector key
// product (ring.NewVectorMont, which SubRing.ifma is set from), and
// every basis pair their converters extend between, canonical and
// Montgomery-out, selects the vector stage 2. Elsewhere every one
// selects the scalar kernels.
func TestKeyProductKernelSelection(t *testing.T) {
	probe, err := mathutil.GenerateNTTPrimes(45, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, host := ring.NewVectorMont(probe[0])
	want := map[bool]string{false: "scalar", true: "vector (AVX-512 IFMA)"}[host]
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
				if _, ok := ring.NewVectorMont(q); ok != host {
					t.Errorf("%s: q = %d (%d-bit class) selects the vector key product = %v, want %v", w.name, q, b, ok, host)
				}
			}
			t.Logf("%s logN=%d: %d primes near 2^%d, %s to %s: %s key product", w.name, w.logN, len(ps), b,
				modulusName(slices.Min(ps)), modulusName(slices.Max(ps)), want)
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
		ringQ := chain(w.logQ)
		ringP := chain(w.logP)
		pairs := converterBasisPairs(ringQ, ringP)
		for _, p := range pairs {
			for _, montOut := range []bool{false, true} {
				if tab := newExtTable(p.in, p.out, montOut); tab.ifma != host {
					t.Errorf("%s: %s ℓ=%d→%d montOut=%v selects the vector stage 2 = %v, want %v",
						w.name, p.name, len(p.in), len(p.out), montOut, tab.ifma, host)
				}
			}
		}
		t.Logf("%s: %d basis pairs: %s stage 2", w.name, len(pairs), want)
	}
}

// TestConverterKernelSwitch pins Converter.UseVectorKernels: switched
// off, no extension table the converter has cached, and none it builds
// afterwards, runs a vector kernel, and ModUp, ModDown, ModDownRescale
// and Rescale still write the words they write on the kernels the
// constructors chose; switched back on, every table is back on its
// constructor's choice.
func TestConverterKernelSwitch(t *testing.T) {
	const n, levelQ = 64, 4
	ringQ, ringP := classRings(t, modulusClasses[2], n, levelQ+1, 2)
	c := NewConverter(ringQ, ringP)
	a := ringQ.NewPoly()
	ringQ.SampleUniform(fixedSource(), a)
	ringQ.NTTPoly(a)
	run := func(c *Converter) []*ring.Poly {
		up := c.NewPolyQP(levelQ)
		c.ModUpDigit(levelQ, 0, 2, a, up, 1)
		down, merged, rescaled := ringQ.NewPoly(), ringQ.NewPoly(), ringQ.NewPoly()
		c.ModDown(levelQ, up, down, 1)
		c.ModDownRescale(levelQ, up, merged, 1)
		c.Rescale(levelQ, a, rescaled, 1)
		return []*ring.Poly{up.Q, up.P, down, merged, rescaled}
	}
	want := run(c)
	tables := func() []*ExtTable { return slices.Collect(maps.Values(c.tables)) }
	cached := tables()

	if c.UseVectorKernels(false) {
		t.Error("UseVectorKernels(false) reports a vector kernel still running")
	}
	for _, tab := range tables() {
		if tab.ifma {
			t.Errorf("ℓ=%d→%d: cached table still on the vector kernels after UseVectorKernels(false)", len(tab.In), len(tab.Out))
		}
	}
	for i, p := range run(c) {
		if !p.Equal(want[i]) {
			t.Errorf("output %d differs between the chosen and the scalar kernels", i)
		}
	}
	c.ModUpDigit(levelQ, 2, 4, a, c.NewPolyQP(levelQ), 1) // a basis not cached before the switch
	if len(tables()) == len(cached) {
		t.Fatal("the second digit built no new table")
	}
	for _, tab := range tables() {
		if tab.ifma {
			t.Errorf("ℓ=%d→%d: table built after UseVectorKernels(false) runs the vector kernels", len(tab.In), len(tab.Out))
		}
	}

	vector := c.UseVectorKernels(true)
	chose := false
	for _, tab := range tables() {
		if tab.ifma != tab.vector {
			t.Errorf("ℓ=%d→%d: UseVectorKernels(true) left ifma = %v, the constructor chose %v", len(tab.In), len(tab.Out), tab.ifma, tab.vector)
		}
		chose = chose || tab.vector
	}
	if chose && !vector {
		t.Error("UseVectorKernels(true) reports no vector kernel, but a table chose one")
	}
	t.Logf("vector kernels on this host: %v", vector)
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

// requireRTimes fails unless got[j][c] = R·want[j][c] mod out[j] for every
// word, R = 2^64: the Montgomery-out contract.
func requireRTimes(t *testing.T, what string, out []uint64, got, want [][]uint64) {
	t.Helper()
	for j, pj := range out {
		r := mathutil.MontR(pj)
		for c := range want[j] {
			if exp := mathutil.MulMod(want[j][c], r, pj); got[j][c] != exp {
				t.Fatalf("%s: word [%d][%d] = %d, want R·%d = %d mod %d", what, j, c, got[j][c], want[j][c], exp, pj)
			}
		}
	}
}

// TestExtendMontOutIsRTimesReference demands a Montgomery-out table (the
// ones ModUpDigit extends with), scalar and vector, write exactly
// R·ExtendReference on every ModUp basis pair of every modulus class,
// for uniform and all-(q_i − 1) inputs.
func TestExtendMontOutIsRTimesReference(t *testing.T) {
	src := fixedSource()
	const n = ExtendTile + 3
	for _, class := range modulusClasses {
		ringQ, ringP := classRings(t, class, 32, 6, 2)
		var ran []string
		for _, p := range converterBasisPairs(ringQ, ringP) {
			if p.name != "modup" {
				continue
			}
			tab := newExtTable(p.in, p.out, true)
			for _, max := range []bool{false, true} {
				in := makeLimbs(len(p.in), n)
				for i, q := range p.in {
					for c := range in[i] {
						in[i][c] = q - 1
						if !max {
							in[i][c] = src.Uint64() % q
						}
					}
				}
				want, got := makeLimbs(len(p.out), n), makeLimbs(len(p.out), n)
				tab.ExtendReference(in, want)
				ran = withExtendKernels(tab, func(kernel string) {
					tab.Extend(in, got)
					requireRTimes(t, fmt.Sprintf("%s %s kernel ℓ=%d→%d max=%v", class.name, kernel, len(p.in), len(p.out), max), p.out, got, want)
				})
			}
		}
		t.Logf("%s: %s Montgomery-out stage 2 matched R·reference", class.name, strings.Join(ran, " and "))
	}
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
			for j := range want {
				for c := range want[j] {
					if got[j][c] != want[j][c] {
						t.Fatalf("ℓ=%d max=%v: Extend[%d][%d] = %d, reference %d", l, max, j, c, got[j][c], want[j][c])
					}
				}
			}
			newExtTable(inP, outP, true).Extend(in, got)
			requireRTimes(t, fmt.Sprintf("ℓ=%d max=%v Montgomery-out", l, max), outP, got, want)
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

// fuzzExtendPrimes are the limbs FuzzExtend draws its bases from: the
// CKKS primes alternating around 2^50 and the largest NTT primes below
// 2^51, where the vector stage 2's lanes and close have the least
// headroom.
var fuzzExtendPrimes = sync.OnceValues(func() ([]uint64, error) {
	near, err := mathutil.GenerateNTTPrimesNear(50, 10, 24)
	if err != nil {
		return nil, err
	}
	top, err := mathutil.GenerateNTTPrimes(51, 10, 16)
	return append(near, top...), err
})

// FuzzExtend pits the vector stage 2 of the basis extension against the
// scalar one, bit for bit, canonical and Montgomery-out, on bases of 1–20
// input and 1–20 output limbs drawn from fuzzExtendPrimes, at lengths off
// and on the eight-word groups and the tile. fill picks the words:
// uniform, all q_i − 1, or a per-word mix of 0, q_i − 1 and uniform.
func FuzzExtend(f *testing.F) {
	f.Add(uint64(1), uint16(2+20*16), uint8(0), false)
	f.Add(uint64(2), uint16(3+20*13+400*3), uint8(1), true)
	f.Add(uint64(3), uint16(19+20*19+400*4), uint8(1), false)
	f.Add(^uint64(0), uint16(0), uint8(2), true)
	f.Add(uint64(0xdeadbeefcafe), uint16(7+20*2+400*1), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed uint64, shape uint16, fill uint8, montOut bool) {
		pool, err := fuzzExtendPrimes()
		if err != nil {
			t.Fatal(err)
		}
		lIn, lOut := 1+int(shape%20), 1+int(shape/20%20)
		n := []int{1, 7, 64, ExtendTile + 1, 2*ExtendTile + 33}[int(shape/400)%5]
		rng := rand.New(rand.NewPCG(seed, 2))
		picked := slices.Clone(pool)
		rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
		tab := newExtTable(picked[:lIn], picked[lIn:lIn+lOut], montOut)
		if !tab.ifma {
			t.Skip("the vector stage 2 is not selected on this host")
		}
		in := makeLimbs(lIn, n)
		for i, q := range tab.In {
			for c := range in[i] {
				x := rng.Uint64()
				switch fill % 3 {
				case 0:
					in[i][c] = x % q
				case 1:
					in[i][c] = q - 1
				case 2:
					in[i][c] = []uint64{0, q - 1, x % q}[x>>62%3]
				}
			}
		}
		var want [][]uint64
		withExtendKernels(tab, func(kernel string) {
			got := makeLimbs(lOut, n)
			tab.Extend(in, got)
			if kernel == "scalar" {
				want = got
				return
			}
			requireEqualLimbs(t, fmt.Sprintf("vector vs scalar ℓ=%d→%d n=%d montOut=%v", lIn, lOut, n, montOut), got, want)
		})
	})
}
