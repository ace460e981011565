package prng_test

import (
	"testing"

	"repro/internal/ckks"
	"repro/internal/prng"
)

// TestUniformSliceMatchesUint64n is the wire-compatibility golden of the
// division-free UniformSlice: for every modulus of the three library
// parameter sets the benchmark runs (mult_chain, matvec_hoisted,
// bootstrap), a power of two and a 61-bit prime, the slice must equal
// per-element Uint64n draws word for word — rejections included — and
// leave the stream at the same position. Switching-key halves are
// regenerated from seeds through this function, so any divergence would
// change every compressed key.
func TestUniformSliceMatchesUint64n(t *testing.T) {
	rep := func(b, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = b
		}
		return out
	}
	moduli := []uint64{
		1 << 40,             // power of two: the mask path
		2305843009213693951, // 2^61 − 1, the largest supported size
		3,                   // rejection limit 1: exercises v < limit near never, r ≥ q often
		(1 << 63) + 29,      // rejects almost half the draws
	}
	for _, lit := range []ckks.ParametersLiteral{
		{LogN: 13, LogQ: append([]int{50}, rep(40, 8)...), LogP: rep(50, 3), LogScale: 40},
		{LogN: 12, LogQ: append([]int{50}, rep(40, 5)...), LogP: rep(50, 2), LogScale: 40},
		{LogN: 9, LogQ: append([]int{48}, rep(40, 16)...), LogP: rep(50, 3), LogScale: 40},
	} {
		p, err := ckks.NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		moduli = append(moduli, p.Q()...)
		moduli = append(moduli, p.P()...)
	}

	var seed [prng.SeedSize]byte
	copy(seed[:], "uniform slice golden")
	got := make([]uint64, 1000)
	for _, q := range moduli {
		fast, ref := prng.NewSource(seed), prng.NewSource(seed)
		fast.UniformSlice(got, q)
		for i, v := range got {
			if want := ref.Uint64n(q); v != want {
				t.Fatalf("q=%d word %d: UniformSlice %d, Uint64n %d", q, i, v, want)
			}
		}
		if fast.Uint64() != ref.Uint64() {
			t.Fatalf("q=%d: streams at different positions after %d words", q, len(got))
		}
	}
}

// TestReseedRestartsStream pins Reseed to NewSource: a used Source
// reseeded produces the fresh stream.
func TestReseedRestartsStream(t *testing.T) {
	var a, b [prng.SeedSize]byte
	a[0], b[0] = 1, 2
	s := prng.NewSource(a)
	s.Uint64n(12345) // leave it mid-stream
	s.Reseed(b)
	fresh := prng.NewSource(b)
	for i := 0; i < 100; i++ {
		if s.Uint64() != fresh.Uint64() {
			t.Fatalf("reseeded stream diverged from a fresh source at word %d", i)
		}
	}
}
