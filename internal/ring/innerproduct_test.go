package ring

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/mathutil"
)

// innerProductRing builds a ring whose moduli span the supported sizes:
// a 61-bit prime (the overflow bound of the 128-bit accumulator is tight
// there), two 45-bit ones and a 30-bit one.
func innerProductRing(t testing.TB, n int) *Ring {
	t.Helper()
	logN := 0
	for 1<<logN < n {
		logN++
	}
	var moduli []uint64
	for _, spec := range []struct{ bits, count int }{{61, 1}, {45, 2}, {30, 1}} {
		ps, err := mathutil.GenerateNTTPrimes(spec.bits, logN, spec.count)
		if err != nil {
			t.Fatal(err)
		}
		moduli = append(moduli, ps...)
	}
	r, err := NewRing(n, moduli)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// innerProductRows draws β rows of n words below q; with worst set every
// word is q−1, the largest products the accumulator can be fed.
func innerProductRows(src *rand.Rand, beta, n int, q uint64, worst bool) [][]uint64 {
	rows := make([][]uint64, beta)
	for j := range rows {
		rows[j] = make([]uint64, n)
		for c := range rows[j] {
			rows[j][c] = q - 1
			if !worst {
				rows[j][c] = src.Uint64N(q)
			}
		}
	}
	return rows
}

// strictInnerProduct is the composition the fused kernel replaces: per
// digit, materialize the permuted row, then a fully reduced
// multiply-accumulate into a zeroed destination.
func strictInnerProduct(s *SubRing, d, b, a [][]uint64, perm []int, u, v []uint64) {
	clear(u)
	clear(v)
	x := make([]uint64, len(u))
	for j := range d {
		copy(x, d[j])
		if perm != nil {
			for c, src := range perm {
				x[c] = d[j][src]
			}
		}
		s.MulThenAddVec(b[j], x, u)
		s.MulThenAddVec(a[j], x, v)
	}
}

// fromMForm returns the canonical rows x·R⁻¹ mod q of rows in Montgomery
// form: what the strict oracle multiplies where the kernel takes R·x.
func fromMForm(s *SubRing, rows [][]uint64) [][]uint64 {
	out := make([][]uint64, len(rows))
	for j, row := range rows {
		out[j] = make([]uint64, len(row))
		for c, x := range row {
			out[j][c] = mathutil.MontReduce(0, x, s.Q, s.qNeg)
		}
	}
	return out
}

// TestGatherMulAccumulateMatchesStrict demands the fused key-switch kernel,
// fed digits in Montgomery form, be bit-identical to the strict per-digit
// composition on the canonical digits: for every modulus, for lengths
// around the tile boundary, for digit counts around the fold guard (7 and
// 8 products straddle it at 61 bits, 63–65 are a long sum folded many
// times), and for the identity and every Galois permutation the evaluator
// tests use (a random index table where the length is not a ring degree).
// With worst set every word the kernel reads is q−1, the largest sum it
// can be fed. The destination is poisoned first: the kernel must write
// it, not accumulate into it.
func TestGatherMulAccumulateMatchesStrict(t *testing.T) {
	src := rand.New(rand.NewPCG(14, 1))
	for _, n := range []int{InnerProductTile - 1, InnerProductTile, 4 * InnerProductTile} {
		perms := map[string][]int{"identity": nil}
		ringN := n
		if n&(n-1) != 0 {
			ringN = n + 1
			perms["random"] = src.Perm(n)
		}
		r := innerProductRing(t, ringN)
		if n == ringN {
			for _, step := range []int{1, 2, 3, -1, n/2 - 1} {
				perms[fmt.Sprintf("rot%d", step)] = r.AutomorphismNTTIndex(r.GaloisElement(step))
			}
			perms["conjugate"] = r.AutomorphismNTTIndex(r.GaloisElementConjugate())
		}
		for _, s := range r.SubRings {
			for _, beta := range []int{1, 2, 3, 7, 8, 63, 64, 65} {
				for _, worst := range []bool{false, true} {
					d := innerProductRows(src, beta, n, s.Q, worst)
					b := innerProductRows(src, beta, n, s.Q, worst)
					a := innerProductRows(src, beta, n, s.Q, worst)
					canonical := fromMForm(s, d)
					for name, perm := range perms {
						wantU, wantV := make([]uint64, n), make([]uint64, n)
						strictInnerProduct(s, canonical, b, a, perm, wantU, wantV)
						u, v := make([]uint64, n), make([]uint64, n)
						for c := range u {
							u[c], v[c] = ^uint64(0), ^uint64(0)
						}
						s.GatherMulAccumulate(d, b, a, perm, u, v)
						for c := range u {
							if u[c] != wantU[c] || v[c] != wantV[c] {
								t.Fatalf("n=%d q=%d β=%d worst=%v perm=%s word %d: got (%d, %d), want (%d, %d)",
									n, s.Q, beta, worst, name, c, u[c], v[c], wantU[c], wantV[c])
							}
						}
					}
				}
			}
		}
	}
}

// TestMFormRoundTrip checks MForm multiplies by R = 2^64 mod q: the
// Montgomery reduction of its output is the input, for every modulus.
func TestMFormRoundTrip(t *testing.T) {
	r := innerProductRing(t, 64)
	src := rand.New(rand.NewPCG(14, 3))
	for _, s := range r.SubRings {
		x := innerProductRows(src, 1, 64, s.Q, false)[0]
		x[0], x[1] = 0, s.Q-1
		m := make([]uint64, len(x))
		s.MForm(x, m)
		if back := fromMForm(s, [][]uint64{m})[0]; !slices.Equal(back, x) {
			t.Fatalf("q=%d: MForm does not invert MontReduce(0, ·)", s.Q)
		}
	}
}

// BenchmarkGatherMulAccumulate times the kernel on one limb at the
// matvec_hoisted shape (N = 2^12, β = 3) and at the bootstrap shapes
// (N = 2^9, β = 3 and 6), with and without the gather.
func BenchmarkGatherMulAccumulate(b *testing.B) {
	for _, sh := range []struct{ n, beta int }{{1 << 12, 3}, {1 << 9, 3}, {1 << 9, 6}} {
		r := testRing(b, sh.n, 1)
		s := r.SubRings[0]
		src := rand.New(rand.NewPCG(14, 2))
		d := innerProductRows(src, sh.beta, sh.n, s.Q, false)
		kb := innerProductRows(src, sh.beta, sh.n, s.Q, false)
		ka := innerProductRows(src, sh.beta, sh.n, s.Q, false)
		u, v := make([]uint64, sh.n), make([]uint64, sh.n)
		for _, c := range []struct {
			name string
			perm []int
		}{{"identity", nil}, {"rot1", r.AutomorphismNTTIndex(r.GaloisElement(1))}} {
			b.Run(fmt.Sprintf("N=%d/beta=%d/%s", sh.n, sh.beta, c.name), func(b *testing.B) {
				b.SetBytes(int64((3*sh.beta + 2) * sh.n * 8))
				for i := 0; i < b.N; i++ {
					s.GatherMulAccumulate(d, kb, ka, c.perm, u, v)
				}
			})
		}
	}
}
