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

// innerProductRing builds a ring whose moduli span the supported sizes:
// a 61-bit prime (the overflow bound of the 128-bit accumulator is tight
// there), two 45-bit ones, a 30-bit one, and the vector kernel's wide
// classes the workloads use: the first GenerateNTTPrimesNear(50, …) prime
// above 2^50 and the largest NTT prime below 2^51, where the lane sums
// and the close have the least headroom.
func innerProductRing(t testing.TB, n int) *Ring {
	t.Helper()
	logN := 0
	for 1<<logN < n {
		logN++
	}
	var moduli []uint64
	for _, spec := range []struct{ bits, count int }{{61, 1}, {45, 2}, {30, 1}, {51, 1}} {
		ps, err := mathutil.GenerateNTTPrimes(spec.bits, logN, spec.count)
		if err != nil {
			t.Fatal(err)
		}
		moduli = append(moduli, ps...)
	}
	r, err := NewRing(n, append(moduli, wideCKKSPrime(t, logN)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// withSubRingKernels runs f once per key-product kernel of s: "scalar",
// then "vector" when newSubRing chose it (IFMA on this host, q < 2^51).
// It returns the kernels that ran.
func withSubRingKernels(s *SubRing, f func(kernel string)) []string {
	chosen := s.ifma
	defer func() { s.ifma = chosen }()
	s.ifma = false
	f("scalar")
	if !chosen {
		return []string{"scalar"}
	}
	s.ifma = true
	f("vector")
	return []string{"scalar", "vector"}
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
// scalar and vector, fed digits in Montgomery form, be bit-identical to
// the strict per-digit composition on the canonical digits: for every
// modulus class, for lengths around the tile boundary and off the
// vector's eight-word groups, for digit counts around the scalar fold
// guard (7 and 8 products straddle it at 61 bits, 63–65 are a long sum
// folded many times), and, at the shortest length on the limbs from
// 2^50 up with every word q−1, around the vector kernel's 4095-term
// limit, past which it hands the sum to the scalar kernel; and for the
// identity and every Galois permutation the
// evaluator tests use (a random index table where the length is not a
// ring degree). With worst set every word the kernel reads is q−1, the
// largest sum it can be fed. The destination is poisoned first: the
// kernel must write it, not accumulate into it.
func TestGatherMulAccumulateMatchesStrict(t *testing.T) {
	src := rand.New(rand.NewPCG(14, 1))
	for _, n := range []int{InnerProductTile - 1, InnerProductTile, 4 * InnerProductTile} {
		perms := map[string][]int{"identity": nil}
		ringN := n
		betas := []int{1, 2, 3, 7, 8, 63, 64, 65}
		if n&(n-1) != 0 {
			ringN = n + 1
			perms["random"] = src.Perm(n)
			betas = append(betas, 300, MaxLaneTerms, MaxLaneTerms+1)
		}
		r := innerProductRing(t, ringN)
		if n == ringN {
			for _, step := range []int{1, 2, 3, -1, n/2 - 1} {
				perms[fmt.Sprintf("rot%d", step)] = r.AutomorphismNTTIndex(r.GaloisElement(step))
			}
			perms["conjugate"] = r.AutomorphismNTTIndex(r.GaloisElementConjugate())
		}
		for _, s := range r.SubRings {
			var ran []string
			longest := 0
			for _, beta := range betas {
				for _, worst := range []bool{false, true} {
					if beta > 300 && (!worst || s.Q < 1<<50) {
						continue // the lane limit is run where lanes are fullest
					}
					d := innerProductRows(src, beta, n, s.Q, worst)
					b := innerProductRows(src, beta, n, s.Q, worst)
					a := innerProductRows(src, beta, n, s.Q, worst)
					canonical := fromMForm(s, d)
					longest = beta
					for name, perm := range perms {
						wantU, wantV := make([]uint64, n), make([]uint64, n)
						strictInnerProduct(s, canonical, b, a, perm, wantU, wantV)
						ran = withSubRingKernels(s, func(kernel string) {
							u, v := make([]uint64, n), make([]uint64, n)
							for c := range u {
								u[c], v[c] = ^uint64(0), ^uint64(0)
							}
							s.GatherMulAccumulate(d, b, a, perm, u, v)
							for c := range u {
								if u[c] != wantU[c] || v[c] != wantV[c] {
									t.Fatalf("n=%d q=%s %s kernel β=%d worst=%v perm=%s word %d: got (%d, %d), want (%d, %d)",
										n, modulusName(s.Q), kernel, beta, worst, name, c, u[c], v[c], wantU[c], wantV[c])
								}
							}
						})
					}
				}
			}
			t.Logf("n=%d q = %s: %s kernels matched the strict composition, β ≤ %d",
				n, modulusName(s.Q), strings.Join(ran, " and "), longest)
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

// BenchmarkGatherMulAccumulate times the kernel, scalar and vector, on
// one limb at the matvec_hoisted shape (N = 2^12, β = 3) and at the
// bootstrap shapes (N = 2^9, β = 3 and 6), with and without the gather,
// on a 2^50 + k CKKS prime as the workloads build.
func BenchmarkGatherMulAccumulate(b *testing.B) {
	for _, sh := range []struct{ n, beta int }{{1 << 12, 3}, {1 << 9, 3}, {1 << 9, 6}} {
		r, err := NewRing(sh.n, []uint64{wideCKKSPrime(b, bits.Len(uint(sh.n))-1)})
		if err != nil {
			b.Fatal(err)
		}
		s := r.SubRings[0]
		src := rand.New(rand.NewPCG(14, 2))
		d := innerProductRows(src, sh.beta, sh.n, s.Q, false)
		kb := innerProductRows(src, sh.beta, sh.n, s.Q, false)
		ka := innerProductRows(src, sh.beta, sh.n, s.Q, false)
		u, v := make([]uint64, sh.n), make([]uint64, sh.n)
		chosen := s.ifma
		for _, c := range []struct {
			name string
			perm []int
		}{{"identity", nil}, {"rot1", r.AutomorphismNTTIndex(r.GaloisElement(1))}} {
			for _, kernel := range []string{"scalar", "vector"} {
				b.Run(fmt.Sprintf("N=%d/beta=%d/%s/kernel=%s", sh.n, sh.beta, c.name, kernel), func(b *testing.B) {
					if kernel == "vector" && !chosen {
						b.Skip("vector key product not selected on this host")
					}
					s.ifma = kernel == "vector"
					defer func() { s.ifma = chosen }()
					b.SetBytes(int64((3*sh.beta + 2) * sh.n * 8))
					for b.Loop() {
						s.GatherMulAccumulate(d, kb, ka, c.perm, u, v)
					}
				})
			}
		}
	}
}

// FuzzGatherMulAccumulate pits the vector key product against the scalar
// one, bit for bit, on the limbs where the vector lanes have the least
// headroom: just below and just above 2^50 and the largest below 2^51.
// fill picks the words: uniform, all q−1 (the largest products), or a
// per-word mix of 0, q−1 and uniform; sel picks the length and the
// gather: identity, a rotation, the conjugation or a random index table.
func FuzzGatherMulAccumulate(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(5), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(255), uint8(6), uint8(1))
	f.Add(^uint64(0), uint8(0), uint8(3), uint8(2))
	f.Add(uint64(0xdeadbeefcafe), uint8(63), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, betaSel, sel, fill uint8) {
		n := fuzzSizes[int(sel>>2)%2]
		r := fuzzRing(t, n)
		state := seed
		var perm []int
		switch sel % 4 {
		case 1:
			perm = r.AutomorphismNTTIndex(r.GaloisElement(1 + int(splitmix64(&state)%uint64(n/2-1))))
		case 2:
			perm = r.AutomorphismNTTIndex(r.GaloisElementConjugate())
		case 3:
			perm = rand.New(rand.NewPCG(seed, 1)).Perm(n)
		}
		beta := 1 + int(betaSel)
		word := func(q uint64) uint64 {
			x := splitmix64(&state)
			switch fill % 3 {
			case 1:
				return q - 1
			case 2:
				return []uint64{0, q - 1, x % q}[x>>62%3]
			}
			return x % q
		}
		vector := false
		for _, s := range r.SubRings {
			if !s.ifma || s.Q < 1<<49 {
				continue
			}
			vector = true
			rows := func() [][]uint64 {
				m := make([][]uint64, beta)
				for j := range m {
					m[j] = make([]uint64, n)
					for c := range m[j] {
						m[j][c] = word(s.Q)
					}
				}
				return m
			}
			d, b, a := rows(), rows(), rows()
			var wantU, wantV []uint64
			withSubRingKernels(s, func(kernel string) {
				u, v := make([]uint64, n), make([]uint64, n)
				s.GatherMulAccumulate(d, b, a, perm, u, v)
				if kernel == "scalar" {
					wantU, wantV = u, v
					return
				}
				for c := range u {
					if u[c] != wantU[c] || v[c] != wantV[c] {
						t.Fatalf("q = %s n=%d β=%d word %d: vector (%d, %d), scalar (%d, %d)",
							modulusName(s.Q), n, beta, c, u[c], v[c], wantU[c], wantV[c])
					}
				}
			})
		}
		if !vector {
			t.Skip("no limb selects the vector key product on this host")
		}
	})
}
