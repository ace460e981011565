package ring

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/mathutil"
)

// pointwiseOperands feeds one call of every pointwise kernel: four rows
// of words below q, a row of words below 2^52 for ReduceThenAddConst, a
// gather (nil: the identity) and the scalars.
type pointwiseOperands struct {
	a0, a1, b0, b1 []uint64
	wide           []uint64
	perm           []int
	w, wShoup, c   uint64
}

// newPointwiseOperands draws n words per row below q (all q−1 with
// worst set), the wide row uniform below 2^52 (all 2^52 − 1 with worst),
// and w, c below q.
func newPointwiseOperands(src *rand.Rand, q uint64, n int, perm []int, worst bool) *pointwiseOperands {
	row := func(bound uint64) []uint64 {
		r := make([]uint64, n)
		for c := range r {
			r[c] = bound - 1
			if !worst {
				r[c] = src.Uint64N(bound)
			}
		}
		return r
	}
	w := src.Uint64N(q)
	return &pointwiseOperands{
		a0: row(q), a1: row(q), b0: row(q), b1: row(q), wide: row(1 << 52),
		perm: perm, w: w, wShoup: mathutil.ShoupPrecomp(w, q), c: src.Uint64N(q),
	}
}

// runPointwiseKernels calls every pointwise kernel of s on o, each into
// a destination poisoned first, and returns what each wrote by name.
func runPointwiseKernels(s *SubRing, o *pointwiseOperands) map[string][]uint64 {
	n := len(o.a0)
	poisoned := func() []uint64 {
		d := make([]uint64, n)
		for c := range d {
			d[c] = ^uint64(0)
		}
		return d
	}
	out := map[string][]uint64{}
	d0, d1, d2 := poisoned(), poisoned(), poisoned()
	s.Tensor(d0, d1, d2, o.a0, o.a1, o.b0, o.b1)
	out["Tensor"] = slices.Concat(d0, d1, d2)
	d0, d1, d2 = poisoned(), poisoned(), poisoned()
	s.TensorSquare(d0, d1, d2, o.a0, o.a1)
	out["TensorSquare"] = slices.Concat(d0, d1, d2)
	acc := slices.Clone(o.b0)
	s.MulScalarThenAdd(o.a0, o.perm, o.w, o.wShoup, acc)
	out["MulScalarThenAdd"] = acc
	d0 = poisoned()
	s.SubThenMulScalar(o.a0, o.a1, o.w, o.wShoup, d0)
	out["SubThenMulScalar"] = d0
	d0 = poisoned()
	s.ReduceThenAddConst(o.a0, s.Q, o.c, d0)
	out["ReduceThenAddConst"] = d0
	d0 = poisoned()
	s.ReduceThenAddConst(o.wide, 1<<52, o.c, d0)
	out["ReduceThenAddConst/wide"] = d0
	inPlace := slices.Clone(o.a1)
	s.ReduceThenAddConst(inPlace, s.Q, o.c, inPlace)
	out["ReduceThenAddConst/in place"] = inPlace
	return out
}

// comparePointwise runs every kernel of s on o with each kernel newSubRing
// chose (withSubRingKernels) and fails on the first word the vector
// kernel writes differently from the scalar one. It returns the kernels
// that ran.
func comparePointwise(t testing.TB, s *SubRing, o *pointwiseOperands, what string) []string {
	t.Helper()
	var want map[string][]uint64
	return withSubRingKernels(s, func(kernel string) {
		got := runPointwiseKernels(s, o)
		if kernel == "scalar" {
			want = got
			return
		}
		for name, g := range got {
			for c := range g {
				if g[c] != want[name][c] {
					t.Fatalf("q = %s %s %s: vector word %d = %d, scalar %d",
						modulusName(s.Q), what, name, c, g[c], want[name][c])
				}
			}
		}
	})
}

// TestPointwiseKernelsMatchScalar demands every pointwise kernel on the
// vector path write the scalar body's words, on every modulus class of
// kernelTestModuli (45-bit, either side of 2^50, just below 2^51; the
// 61-bit limb stays scalar and checks the test runs there too): at every
// length 1–17, which leaves every masked tail, and at N = 512 and 8192;
// on uniform words, on every word q−1 (and 2^52 − 1 for
// ReduceThenAddConst's wide rows); under the identity, a Galois gather
// and a random one. It logs, per modulus, which kernels ran.
func TestPointwiseKernelsMatchScalar(t *testing.T) {
	src := rand.New(rand.NewPCG(35, 1))
	for _, logN := range []int{9, 13} {
		n := 1 << logN
		r, err := NewRing(n, kernelTestModuli(t, logN))
		if err != nil {
			t.Fatal(err)
		}
		perms := map[string][]int{
			"identity":  nil,
			"rot1":      r.AutomorphismNTTIndex(r.GaloisElement(1)),
			"conjugate": r.AutomorphismNTTIndex(r.GaloisElementConjugate()),
			"random":    src.Perm(n),
		}
		for _, s := range r.SubRings {
			var ran []string
			for _, worst := range []bool{false, true} {
				for name, perm := range perms {
					what := fmt.Sprintf("n=%d worst=%v perm=%s", n, worst, name)
					ran = comparePointwise(t, s, newPointwiseOperands(src, s.Q, n, perm, worst), what)
				}
				if logN > 9 {
					continue
				}
				for l := 1; l <= 17; l++ {
					for _, perm := range [][]int{nil, src.Perm(l)} {
						what := fmt.Sprintf("len=%d worst=%v gather=%v", l, worst, perm != nil)
						comparePointwise(t, s, newPointwiseOperands(src, s.Q, l, perm, worst), what)
					}
				}
			}
			t.Logf("N=%d q = %s: %s pointwise kernels matched", n, modulusName(s.Q), strings.Join(ran, " and "))
		}
	}
}

// TestVectorEstimateMatchesScalar holds the vector first stage of a basis
// extension to the scalar loop rns.ExtTable runs: the Shoup products y
// and the floored float sum v, over bases of one to five limbs of the
// vector moduli of kernelTestModuli, at lengths around the kernel's
// 16-word step and at 512, from a nonzero offset, on uniform and
// all-(q−1) words.
func TestVectorEstimateMatchesScalar(t *testing.T) {
	var moduli []uint64
	for _, q := range kernelTestModuli(t, 9) {
		if ifmaUsable(q) {
			moduli = append(moduli, q)
		}
	}
	if len(moduli) == 0 {
		t.Skip("no modulus runs the vector kernels on this host")
	}
	src := rand.New(rand.NewPCG(35, 2))
	for l := 1; l <= 5; l++ {
		q := make([]uint64, l)
		w, ws := make([]uint64, l), make([]uint64, l)
		inv := make([]float64, l)
		for i := range q {
			q[i] = moduli[i%len(moduli)]
			w[i] = src.Uint64N(q[i])
			ws[i] = mathutil.ShoupPrecomp(w[i], q[i])
			inv[i] = 1 / float64(q[i])
		}
		e, ok := NewVectorEstimate(q, w, ws, inv)
		if !ok {
			t.Fatalf("ℓ=%d: vector moduli %v rejected", l, q)
		}
		for _, n := range []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 512} {
			for _, worst := range []bool{false, true} {
				const off = 3
				rows := make([][]uint64, l)
				for i := range rows {
					rows[i] = make([]uint64, off+n)
					for c := range rows[i] {
						rows[i][c] = q[i] - 1
						if !worst {
							rows[i][c] = src.Uint64N(q[i])
						}
					}
				}
				wantY, gotY := make([][]uint64, l), make([][]uint64, l)
				vf := make([]float64, n)
				for i := range rows {
					wantY[i], gotY[i] = make([]uint64, n), make([]uint64, n)
					for c := range n {
						y := mathutil.MulModShoup(rows[i][off+c], w[i], ws[i], q[i])
						wantY[i][c] = y
						vf[c] += float64(float64(y) * inv[i])
					}
				}
				gotV := make([]uint64, n)
				e.ScaleAndEstimate(rows, off, gotY, gotV)
				for c := range n {
					if want := uint64(vf[c]); gotV[c] != want {
						t.Fatalf("ℓ=%d n=%d worst=%v: v[%d] = %d, scalar %d", l, n, worst, c, gotV[c], want)
					}
					for i := range gotY {
						if gotY[i][c] != wantY[i][c] {
							t.Fatalf("ℓ=%d n=%d worst=%v: y[%d][%d] = %d, scalar %d", l, n, worst, i, c, gotY[i][c], wantY[i][c])
						}
					}
				}
			}
		}
	}
}

// TestPointwiseKernelsAllocs pins every pointwise kernel, on both paths,
// and the vector first stage at 0 allocations per call.
func TestPointwiseKernelsAllocs(t *testing.T) {
	const n = 512
	r, err := NewRing(n, []uint64{wideCKKSPrime(t, 9)})
	if err != nil {
		t.Fatal(err)
	}
	s := r.SubRings[0]
	src := rand.New(rand.NewPCG(35, 3))
	o := newPointwiseOperands(src, s.Q, n, r.AutomorphismNTTIndex(r.GaloisElement(1)), false)
	d0, d1, d2 := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	calls := map[string]func(){
		"Tensor":             func() { s.Tensor(d0, d1, d2, o.a0, o.a1, o.b0, o.b1) },
		"TensorSquare":       func() { s.TensorSquare(d0, d1, d2, o.a0, o.a1) },
		"MulScalarThenAdd":   func() { s.MulScalarThenAdd(o.a0, o.perm, o.w, o.wShoup, d0) },
		"SubThenMulScalar":   func() { s.SubThenMulScalar(o.a0, o.a1, o.w, o.wShoup, d0) },
		"ReduceThenAddConst": func() { s.ReduceThenAddConst(o.wide, 1<<52, o.c, d0) },
	}
	if e, ok := NewVectorEstimate([]uint64{s.Q}, []uint64{o.w}, []uint64{o.wShoup}, []float64{1 / float64(s.Q)}); ok {
		y, v := [][]uint64{d1}, d2
		calls["ScaleAndEstimate"] = func() { e.ScaleAndEstimate([][]uint64{o.a0}, 0, y, v) }
	}
	for name, call := range calls {
		withSubRingKernels(s, func(kernel string) {
			if a := testing.AllocsPerRun(20, call); a != 0 {
				t.Errorf("%s %s kernel: %.0f allocs per call, want 0", name, kernel, a)
			}
		})
	}
}

// BenchmarkPointwise times every pointwise kernel, scalar and vector, on
// one limb of a 2^50 + k CKKS prime at N = 2^9 (bootstrap) and N = 2^13
// (mult_chain). MulScalarThenAdd runs with and without the gather.
func BenchmarkPointwise(b *testing.B) {
	for _, n := range []int{1 << 9, 1 << 13} {
		r, err := NewRing(n, []uint64{wideCKKSPrime(b, bits.Len(uint(n))-1)})
		if err != nil {
			b.Fatal(err)
		}
		s := r.SubRings[0]
		o := newPointwiseOperands(rand.New(rand.NewPCG(35, 4)), s.Q, n, nil, false)
		rot := r.AutomorphismNTTIndex(r.GaloisElement(1))
		d0, d1, d2 := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		ops := []struct {
			name string
			rows int // limbs read and written per call
			call func()
		}{
			{"Tensor", 7, func() { s.Tensor(d0, d1, d2, o.a0, o.a1, o.b0, o.b1) }},
			{"TensorSquare", 5, func() { s.TensorSquare(d0, d1, d2, o.a0, o.a1) }},
			{"MulScalarThenAdd", 3, func() { s.MulScalarThenAdd(o.a0, nil, o.w, o.wShoup, d0) }},
			{"MulScalarThenAdd/rot1", 3, func() { s.MulScalarThenAdd(o.a0, rot, o.w, o.wShoup, d0) }},
			{"SubThenMulScalar", 3, func() { s.SubThenMulScalar(o.a0, o.a1, o.w, o.wShoup, d0) }},
			{"ReduceThenAddConst", 2, func() { s.ReduceThenAddConst(o.wide, 1<<52, o.c, d0) }},
		}
		chosen := s.ifma
		for _, op := range ops {
			for _, kernel := range []string{"scalar", "vector"} {
				b.Run(fmt.Sprintf("N=%d/%s/kernel=%s", n, op.name, kernel), func(b *testing.B) {
					if kernel == "vector" && !chosen {
						b.Skip("vector kernels not selected on this host")
					}
					s.ifma = kernel == "vector"
					defer func() { s.ifma = chosen }()
					b.SetBytes(int64(op.rows * n * 8))
					for b.Loop() {
						op.call()
					}
				})
			}
		}
	}
}

// FuzzPointwiseKernels pits every vector pointwise kernel against its
// scalar body on a fuzzed odd modulus below 2^51 (the kernels need no
// prime: Montgomery needs q odd, Shoup and Barrett nothing), a fuzzed
// length up to 1024 and fuzzed words: uniform, all q−1 (and 2^52 − 1),
// or a per-word mix of 0, q−1 and uniform; sel picks the identity or a
// random gather.
func FuzzPointwiseKernels(f *testing.F) {
	f.Add(uint64(1), uint64(1<<50+1), uint16(16), uint8(0))
	f.Add(uint64(2), uint64(1<<51-1), uint16(7), uint8(1))
	f.Add(uint64(3), uint64(3), uint16(1023), uint8(2))
	f.Add(uint64(4), uint64(1<<45+12345), uint16(512), uint8(5))
	f.Fuzz(func(t *testing.T, seed, qSel uint64, lenSel uint16, sel uint8) {
		q := max(qSel%(1<<51), 3) | 1
		if q >= 1<<51 {
			q -= 2
		}
		s := &SubRing{Q: q, Barrett: mathutil.NewBarrett(q)}
		s.vmont, s.ifma = NewVectorMont(q)
		if !s.ifma {
			t.Skip("no vector kernels on this host")
		}
		n := 1 + int(lenSel)%1024
		state := seed
		var perm []int
		if sel&1 == 1 {
			perm = rand.New(rand.NewPCG(seed, 2)).Perm(n)
		}
		word := func(bound uint64) uint64 {
			x := splitmix64(&state)
			switch sel >> 1 % 3 {
			case 1:
				return bound - 1
			case 2:
				return []uint64{0, bound - 1, x % bound}[x>>62%3]
			}
			return x % bound
		}
		row := func(bound uint64) []uint64 {
			r := make([]uint64, n)
			for c := range r {
				r[c] = word(bound)
			}
			return r
		}
		w := word(q)
		o := &pointwiseOperands{
			a0: row(q), a1: row(q), b0: row(q), b1: row(q), wide: row(1 << 52),
			perm: perm, w: w, wShoup: mathutil.ShoupPrecomp(w, q), c: word(q),
		}
		comparePointwise(t, s, o, fmt.Sprintf("n=%d", n))
	})
}
