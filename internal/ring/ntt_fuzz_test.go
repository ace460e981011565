package ring

import (
	"math/bits"
	"sync"
	"testing"

	"repro/internal/mathutil"
)

// fuzzSizes covers the single-phase path, the tile boundary and the
// blocked two-phase path.
var fuzzSizes = []int{64, 1024, 2 * NTTTile}

// fuzzRingCache builds (once per size) a ring on kernelTestModuli plus a
// second 61-bit prime: two primes against the 61-bit cap, where the
// lazy-reduction bound u+2q-v < 4q has the least headroom below 2^63,
// mid-size 45-bit primes for contrast, and the vector kernel's edges —
// just below 2^50, where the unfolded products' 4q < 2^52 bound is
// tightest, one just above 2^50, and the largest below 2^51, where the
// folded products' 2q < 2^52 is (FuzzNTTRoundTrip runs those three on
// the vector kernel wherever the CPU has IFMA).
var fuzzRingCache sync.Map // int -> *Ring

func fuzzRing(t testing.TB, n int) *Ring {
	if r, ok := fuzzRingCache.Load(n); ok {
		return r.(*Ring)
	}
	logN := bits.Len(uint(n)) - 1
	big, err := mathutil.GenerateNTTPrimes(61, logN, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(n, append(kernelTestModuli(t, logN), big[1]))
	if err != nil {
		t.Fatal(err)
	}
	fuzzRingCache.Store(n, r)
	return r
}

// splitmix64 expands one seed into a deterministic coefficient stream.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// assertBelow scans a limb for the lazy bound the kernel phases hand off
// at.
func assertBelow(t *testing.T, p []uint64, bound uint64, what string) {
	t.Helper()
	for j, v := range p {
		if v >= bound {
			t.Fatalf("%s: coeff %d = %d breaks the < %d bound", what, j, v, bound)
		}
	}
}

// nttStagesChecked runs the reference forward stage loop, asserting the
// lazy < 4q invariant at every pass boundary (after each butterfly
// stage) and the exact < q bound after the epilogue. The fused kernel
// executes exactly these butterflies in a reordered schedule — the
// bit-identity check below ties the two together — so the per-stage
// bound certifies the arithmetic contract both share.
func nttStagesChecked(t *testing.T, s *SubRing, p []uint64) {
	n, q := s.N, s.Q
	twoQ := 2 * q
	stride := n
	for m := 1; m < n; m <<= 1 {
		stride >>= 1
		for i := 0; i < m; i++ {
			w := s.twiddle[m+i]
			ws := s.twiddleShoup[m+i]
			j1 := 2 * i * stride
			for j := j1; j < j1+stride; j++ {
				u := p[j]
				if u >= twoQ {
					u -= twoQ
				}
				v := lazyMulShoup(p[j+stride], w, ws, q)
				p[j] = u + v
				p[j+stride] = u + twoQ - v
			}
		}
		assertBelow(t, p, 4*q, "NTT stage boundary")
	}
	for j := range p {
		p[j] = lazyReduce(p[j], q)
	}
	assertBelow(t, p, q, "NTT epilogue")
}

// inttStagesChecked mirrors nttStagesChecked for the inverse stage loop:
// the Gentleman–Sande stages keep every stored value below 2q, so the
// 4q hand-off bound holds at each boundary with room to spare, and the
// N^{-1} epilogue lands on canonical residues.
func inttStagesChecked(t *testing.T, s *SubRing, p []uint64) {
	n, q := s.N, s.Q
	twoQ := 2 * q
	stride := 1
	for m := n; m > 1; m >>= 1 {
		h := m >> 1
		j1 := 0
		for i := 0; i < h; i++ {
			w := s.invTwiddle[h+i]
			ws := s.invTwiddleShoup[h+i]
			for j := j1; j < j1+stride; j++ {
				u := p[j]
				v := p[j+stride]
				sum := u + v
				if sum >= 2*twoQ {
					sum -= 2 * twoQ
				}
				if sum >= twoQ {
					sum -= twoQ
				}
				p[j] = sum
				p[j+stride] = lazyMulShoup(u+2*twoQ-v, w, ws, q)
			}
			j1 += stride << 1
		}
		stride <<= 1
		assertBelow(t, p, 4*q, "INTT stage boundary")
	}
	for j := range p {
		p[j] = mathutil.MulModShoup(lazyReduce(p[j], q), s.nInv, s.nInvShoup, q)
	}
	assertBelow(t, p, q, "INTT epilogue")
}

// FuzzNTTRoundTrip fuzzes the kernel contract end to end: on random
// inputs the fused NTT must stay bit-identical to the reference stage
// loop, the lazy < 4q bound must hold at every stage/pass boundary, and
// NTT∘INTT must be the exact identity on canonical residues.
func FuzzNTTRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(0xdeadbeefcafe), uint8(1))
	f.Add(uint64(0x123456789abcdef), uint8(2))
	f.Add(^uint64(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, sizeSel uint8) {
		n := fuzzSizes[int(sizeSel)%len(fuzzSizes)]
		r := fuzzRing(t, n)
		state := seed
		for li, s := range r.SubRings {
			orig := make([]uint64, n)
			for j := range orig {
				orig[j] = splitmix64(&state) % s.Q
			}

			want := append([]uint64(nil), orig...)
			nttStagesChecked(t, s, want)

			got := append([]uint64(nil), orig...)
			s.NTT(got)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("limb %d (q=%d): fused NTT coeff %d = %d, reference %d",
						li, s.Q, j, got[j], want[j])
				}
			}

			// Round trip through the checked inverse stages and through
			// the fused kernel: both must restore the input exactly.
			back := append([]uint64(nil), want...)
			inttStagesChecked(t, s, back)
			s.INTT(got)
			for j := range got {
				if got[j] != orig[j] {
					t.Fatalf("limb %d (q=%d): NTT∘INTT coeff %d = %d, want %d",
						li, s.Q, j, got[j], orig[j])
				}
				if back[j] != orig[j] {
					t.Fatalf("limb %d (q=%d): checked INTT stages coeff %d = %d, want %d",
						li, s.Q, j, back[j], orig[j])
				}
			}
		}
	})
}
