package ring

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/mathutil"
)

// innerProductRows draws β rows of n uniform words below q.
func innerProductRows(src *rand.Rand, beta, n int, q uint64) [][]uint64 {
	rows := make([][]uint64, beta)
	for j := range rows {
		rows[j] = make([]uint64, n)
		for c := range rows[j] {
			rows[j][c] = src.Uint64N(q)
		}
	}
	return rows
}

// TestMFormRoundTrip checks MForm multiplies by R = 2^64 mod q: the
// Montgomery reduction of its output is the input, for every modulus.
func TestMFormRoundTrip(t *testing.T) {
	r := kernelTestRing(t, 64)
	src := rand.New(rand.NewPCG(14, 3))
	for _, s := range r.SubRings {
		x := innerProductRows(src, 1, 64, s.Q)[0]
		x[0], x[1] = 0, s.Q-1
		m := make([]uint64, len(x))
		s.MForm(x, m)
		for c, w := range m {
			if mathutil.MontReduce(0, w, s.Q, s.qNeg) != x[c] {
				t.Fatalf("q=%d: MForm does not invert MontReduce(0, ·)", s.Q)
			}
		}
	}
}

// BenchmarkGatherMulAccumulate times the kernel, scalar and vector, on
// one limb at the matvec_hoisted shape (N = 2^12, β = 3, one lane) and at
// the bootstrap shapes (N = 2^9, β = 3 … 6) with 1, 2 and 4 lanes, with
// and without the gather, on a 2^50 + k CKKS prime as the workloads
// build. ns/lane is the time per product: at most a one-lane call's when
// sharing the key rows pays.
func BenchmarkGatherMulAccumulate(b *testing.B) {
	type shape struct{ n, beta, lanes int }
	shapes := []shape{{1 << 12, 3, 1}}
	for beta := 3; beta <= 6; beta++ {
		for _, lanes := range []int{1, 2, 4} {
			shapes = append(shapes, shape{1 << 9, beta, lanes})
		}
	}
	for _, sh := range shapes {
		r, err := NewRing(sh.n, []uint64{wideCKKSPrime(b, bits.Len(uint(sh.n))-1)})
		if err != nil {
			b.Fatal(err)
		}
		s := r.SubRings[0]
		src := rand.New(rand.NewPCG(14, 2))
		d := innerProductRows(src, sh.lanes*sh.beta, sh.n, s.Q)
		kb := innerProductRows(src, sh.beta, sh.n, s.Q)
		ka := innerProductRows(src, sh.beta, sh.n, s.Q)
		u, v := innerProductRows(src, sh.lanes, sh.n, s.Q), innerProductRows(src, sh.lanes, sh.n, s.Q)
		for _, c := range []struct {
			name string
			perm []int
		}{{"identity", nil}, {"rot1", r.AutomorphismNTTIndex(r.GaloisElement(1))}} {
			for _, kernel := range []string{"scalar", "vector"} {
				b.Run(fmt.Sprintf("N=%d/beta=%d/lanes=%d/%s/kernel=%s", sh.n, sh.beta, sh.lanes, c.name, kernel), func(b *testing.B) {
					setKernel(b, s, kernel)
					b.SetBytes(int64(((sh.lanes+2)*sh.beta + 2*sh.lanes) * sh.n * 8))
					for b.Loop() {
						s.GatherMulAccumulate(d, kb, ka, c.perm, u, v)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.lanes), "ns/lane")
				})
			}
		}
	}
}

// FuzzGatherMulAccumulate pits the vector key product against the scalar
// one, bit for bit, on every limb of fuzzRing that chooses the vector
// kernels: 45-bit, either side of 2^50 and the largest below 2^51, and
// each lane of a multi-lane call against a one-lane call on its own
// digits. The strict per-digit oracle on every modulus class is
// internal/rns's TestKernelsMatch. betaSel picks 1–256 digits; lanes 1 to
// MaxLanes lanes; fill the words: uniform, all q−1 (the largest
// products), or a per-word mix of 0, q−1 and uniform; sel the length and
// the gather: identity, a rotation, the conjugation or a random index
// table.
func FuzzGatherMulAccumulate(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(5), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(255), uint8(6), uint8(1), uint8(3))
	f.Add(^uint64(0), uint8(0), uint8(3), uint8(2), uint8(2))
	f.Add(uint64(0xdeadbeefcafe), uint8(63), uint8(7), uint8(2), uint8(0))
	f.Add(uint64(4), uint8(3), uint8(4), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, betaSel, sel, fill, laneSel uint8) {
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
		beta, lanes := 1+int(betaSel), 1+int(laneSel)%MaxLanes
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
			if !s.vector {
				continue
			}
			vector = true
			rows := func(k int) [][]uint64 {
				m := make([][]uint64, k)
				for j := range m {
					m[j] = make([]uint64, n)
					for c := range m[j] {
						m[j][c] = word(s.Q)
					}
				}
				return m
			}
			d, b, a := rows(lanes*beta), rows(beta), rows(beta)
			what := fmt.Sprintf("q = %d n=%d β=%d lanes=%d", s.Q, n, beta, lanes)
			requireKernelsAgree(t, what, func() [][]uint64 {
				u, v := make([][]uint64, lanes), make([][]uint64, lanes)
				for k := range u {
					u[k], v[k] = poisonedRow(n), poisonedRow(n)
				}
				s.GatherMulAccumulate(d, b, a, perm, u, v)
				// Each lane against a one-lane call on its own digits.
				for k := range u {
					dk := make([][]uint64, beta)
					for j := range dk {
						dk[j] = d[j*lanes+k]
					}
					one := [][]uint64{poisonedRow(n), poisonedRow(n)}
					s.GatherMulAccumulate(dk, b, a, perm, one[:1], one[1:])
					if !slices.Equal(one[0], u[k]) || !slices.Equal(one[1], v[k]) {
						t.Fatalf("%s: lane %d differs from a one-lane call", what, k)
					}
				}
				return append(u, v...)
			})
		}
		if !vector {
			t.Skip("no limb chooses the vector key product on this host")
		}
	})
}
