package ring

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/mathutil"
)

// pointwiseOperands feeds one call of every pointwise kernel: four rows
// of uniform words below q, a row below 2^52 for ReduceThenAddConst, and
// the scalars. The scalar and vector bodies are held to each other by
// internal/rns's TestKernelsMatch and FuzzKernels.
type pointwiseOperands struct {
	a0, a1, b0, b1 []uint64
	wide           []uint64
	w, wShoup, c   uint64
}

func newPointwiseOperands(src *rand.Rand, q uint64, n int) *pointwiseOperands {
	row := func(bound uint64) []uint64 {
		r := make([]uint64, n)
		for c := range r {
			r[c] = src.Uint64N(bound)
		}
		return r
	}
	w := src.Uint64N(q)
	return &pointwiseOperands{
		a0: row(q), a1: row(q), b0: row(q), b1: row(q), wide: row(1 << 52),
		w: w, wShoup: mathutil.ShoupPrecomp(w, q), c: src.Uint64N(q),
	}
}

// TestPointwiseKernelsAllocs pins every pointwise kernel, on both
// kernels, and the vector first stage at 0 allocations per call.
func TestPointwiseKernelsAllocs(t *testing.T) {
	const n = 512
	r, err := NewRing(n, []uint64{wideCKKSPrime(t, 9)})
	if err != nil {
		t.Fatal(err)
	}
	s := r.SubRings[0]
	o := newPointwiseOperands(rand.New(rand.NewPCG(35, 3)), s.Q, n)
	rot := r.AutomorphismNTTIndex(r.GaloisElement(1))
	d0, d1, d2 := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	calls := map[string]func(){
		"Tensor":             func() { s.Tensor(d0, d1, d2, o.a0, o.a1, o.b0, o.b1) },
		"TensorSquare":       func() { s.TensorSquare(d0, d1, d2, o.a0, o.a1) },
		"MulScalarThenAdd":   func() { s.MulScalarThenAdd(o.a0, rot, o.w, o.wShoup, d0) },
		"SubThenMulScalar":   func() { s.SubThenMulScalar(o.a0, o.a1, o.w, o.wShoup, d0) },
		"ReduceThenAddConst": func() { s.ReduceThenAddConst(o.wide, 1<<52, o.c, d0) },
		"MForm":              func() { s.MForm(o.a0, d0) },
		"Add":                func() { s.Add(o.a0, o.a1, d0) },
		"Sub":                func() { s.Sub(o.a0, o.a1, d0) },
	}
	if e, ok := NewVectorEstimate([]uint64{s.Q}, []uint64{o.w}, []uint64{o.wShoup}, []float64{1 / float64(s.Q)}); ok {
		y, v := [][]uint64{d1}, d2
		calls["ScaleAndEstimate"] = func() { e.ScaleAndEstimate([][]uint64{o.a0}, 0, y, v) }
	}
	for name, call := range calls {
		withKernels(t, func(kernel string) {
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
		o := newPointwiseOperands(rand.New(rand.NewPCG(35, 4)), s.Q, n)
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
			{"MForm", 2, func() { s.MForm(o.a0, d0) }},
			{"Add", 3, func() { s.Add(o.a0, o.a1, d0) }},
			{"Sub", 3, func() { s.Sub(o.a0, o.a1, d0) }},
		}
		for _, op := range ops {
			for _, kernel := range []string{"scalar", "vector"} {
				b.Run(fmt.Sprintf("N=%d/%s/kernel=%s", n, op.name, kernel), func(b *testing.B) {
					setKernel(b, s, kernel)
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
// scalar body on a fuzzed odd modulus below 2^51 — the kernels need no
// prime (Montgomery needs q odd, Shoup and Barrett nothing), so this
// reaches the moduli internal/rns's FuzzKernels, drawing NTT primes,
// does not — a fuzzed length up to 1024 and fuzzed words: uniform, all
// q−1 (and 2^52 − 1), or a per-word mix of 0, q−1 and uniform; sel picks
// the identity or a random gather.
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
		vm, vec := NewVectorMont(q)
		if !vec {
			t.Skip("no vector kernels on this host")
		}
		s := &SubRing{Q: q, Barrett: mathutil.NewBarrett(q), vmont: vm, vector: vec, r: mathutil.MontR(q)}
		s.rShoup = mathutil.ShoupPrecomp(s.r, q)
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
		a0, a1, b0, b1, wide := row(q), row(q), row(q), row(q), row(1<<52)
		w, k := word(q), word(q)
		wShoup := mathutil.ShoupPrecomp(w, q)
		requireKernelsAgree(t, fmt.Sprintf("q = %d n=%d", q, n), func() [][]uint64 {
			t0, t1, t2 := poisonedRow(n), poisonedRow(n), poisonedRow(n)
			s.Tensor(t0, t1, t2, a0, a1, b0, b1)
			sq0, sq1, sq2 := poisonedRow(n), poisonedRow(n), poisonedRow(n)
			s.TensorSquare(sq0, sq1, sq2, a0, a1)
			acc := slices.Clone(b0)
			s.MulScalarThenAdd(a0, perm, w, wShoup, acc)
			diff := poisonedRow(n)
			s.SubThenMulScalar(a0, a1, w, wShoup, diff)
			red, redWide, inPlace := poisonedRow(n), poisonedRow(n), slices.Clone(a1)
			s.ReduceThenAddConst(a0, q, k, red)
			s.ReduceThenAddConst(wide, 1<<52, k, redWide)
			s.ReduceThenAddConst(inPlace, q, k, inPlace)
			mont, sum, dif := poisonedRow(n), poisonedRow(n), poisonedRow(n)
			s.MForm(a0, mont)
			s.Add(a0, a1, sum)
			s.Sub(a0, a1, dif)
			return [][]uint64{t0, t1, t2, sq0, sq1, sq2, acc, diff, red, redWide, inPlace, mont, sum, dif}
		})
	})
}
