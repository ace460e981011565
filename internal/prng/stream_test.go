package prng

import (
	"encoding/binary"
	"math/bits"
	mrand "math/rand/v2"
	"slices"
	"testing"

	"repro/internal/simd"
)

// The stream oracle: math/rand/v2.ChaCha8, which shares no code with
// Source, must emit the words Source emits, on both epoch bodies.

// refSource is Source as it was on math/rand/v2.ChaCha8, before it ran
// the chacha8rand state machine itself: FuzzSource's reference and the
// stdlib rows of the benchmarks.
type refSource struct{ rng mrand.ChaCha8 }

func newRefSource(seed [SeedSize]byte) *refSource {
	r := new(refSource)
	r.Reseed(seed)
	return r
}

func (s *refSource) Reseed(seed [SeedSize]byte) { s.rng.Seed(seed) }

func (s *refSource) Uint64() uint64 { return s.rng.Uint64() }

func (s *refSource) Uint64n(n uint64) uint64 {
	if n&(n-1) == 0 {
		return s.rng.Uint64() & (n - 1)
	}
	limit := -n % n
	for {
		v := s.rng.Uint64()
		if v >= limit {
			return v % n
		}
	}
}

func (s *refSource) Float64() float64 { return float64(s.rng.Uint64()>>11) / (1 << 53) }

func (s *refSource) Fill(p []byte) {
	var buf [8]byte
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, s.rng.Uint64())
		p = p[8:]
	}
	if len(p) > 0 {
		binary.LittleEndian.PutUint64(buf[:], s.rng.Uint64())
		copy(p, buf[:])
	}
}

func (s *refSource) UniformSlice(out []uint64, q uint64) {
	if q&(q-1) == 0 {
		for i := range out {
			out[i] = s.rng.Uint64() & (q - 1)
		}
		return
	}
	limit := -q % q
	m := ^uint64(0) / q
	for i := range out {
		v := s.rng.Uint64()
		for v < limit {
			v = s.rng.Uint64()
		}
		qhat, _ := bits.Mul64(v, m)
		r := v - qhat*q
		if r >= q {
			r -= q
		}
		out[i] = r
	}
}

func (s *refSource) DeriveSeed() [SeedSize]byte {
	var seed [SeedSize]byte
	s.Fill(seed[:])
	return seed
}

// forEachBody runs f as one subtest per kernel body this host has: the
// scalar bodies with the kernel switch off, the AVX-512 epoch kernel and,
// where the CPU has the IFMA kernels, UniformSlice's vector reduction
// with it on.
func forEachBody(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer simd.UseVectorKernels(true)
	for _, body := range []string{"scalar", "vector"} {
		if body == "vector" && !simd.AVX512F() {
			t.Logf("no AVX512F on this host: the vector epoch kernel is not run")
			continue
		}
		if body == "vector" && !simd.IFMA() {
			t.Logf("no AVX512IFMA/DQ on this host: UniformSlice's vector reduction is not run")
		}
		simd.UseVectorKernels(body == "vector")
		t.Run(body, f)
	}
}

// testSeed returns seed k of the stream tests: all zero, all 0xff, then
// random bytes.
func testSeed(k int) [SeedSize]byte {
	var seed [SeedSize]byte
	switch k {
	case 0:
	case 1:
		for i := range seed {
			seed[i] = 0xff
		}
	default:
		r := mrand.NewPCG(uint64(k), 37)
		for i := 0; i < SeedSize; i += 8 {
			binary.LittleEndian.PutUint64(seed[i:], r.Uint64())
		}
	}
	return seed
}

// TestSourceMatchesStdlib holds Source to math/rand/v2.ChaCha8 over 200
// seeds: Fill of lengths around the first two epoch boundaries (124 and
// 248 words), each followed by word-at-a-time reads that must continue
// the stream at the same position, and 5000 words read one at a time.
func TestSourceMatchesStdlib(t *testing.T) {
	lengths := []int{0, 1, 123, 124, 125, 247, 248, 249, 5000}
	forEachBody(t, func(t *testing.T) {
		for k := range 200 {
			seed := testSeed(k)
			for _, n := range lengths {
				s, ref := NewSource(seed), mrand.NewChaCha8(seed)
				got := make([]byte, 8*n)
				s.Fill(got)
				for i := range n {
					if v, want := binary.LittleEndian.Uint64(got[8*i:]), ref.Uint64(); v != want {
						t.Fatalf("seed %d: Fill of %d words: word %d = %#x, want %#x", k, n, i, v, want)
					}
				}
				for i := range 3 {
					if v, want := s.Uint64(), ref.Uint64(); v != want {
						t.Fatalf("seed %d: word %d after Fill of %d words = %#x, want %#x", k, n+i, n, v, want)
					}
				}
			}
			s, ref := NewSource(seed), mrand.NewChaCha8(seed)
			for i := range 5000 {
				if v, want := s.Uint64(), ref.Uint64(); v != want {
					t.Fatalf("seed %d: word %d = %#x, want %#x", k, i, v, want)
				}
			}
		}
	})
}

// TestSourceC2SPVector checks the published chacha8rand test vector,
// three epochs long, on both bodies, read word by word and in one Fill.
func TestSourceC2SPVector(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		s := NewSource(c2spSeed)
		for i, want := range c2spOutput {
			if v := s.Uint64(); v != want {
				t.Fatalf("word %d = %#x, want %#x", i, v, want)
			}
		}
		var zero Source
		zero.Reseed(c2spSeed)
		got := make([]byte, 8*len(c2spOutput))
		zero.Fill(got)
		for i, want := range c2spOutput {
			if v := binary.LittleEndian.Uint64(got[8*i:]); v != want {
				t.Fatalf("Fill: word %d = %#x, want %#x", i, v, want)
			}
		}
	})
}

// TestZeroSourceIsZeroSeed pins the zero Source to the stream of the
// all-zero seed.
func TestZeroSourceIsZeroSeed(t *testing.T) {
	var s Source
	ref := mrand.NewChaCha8([SeedSize]byte{})
	for i := range 300 {
		if v, want := s.Uint64(), ref.Uint64(); v != want {
			t.Fatalf("word %d = %#x, want %#x", i, v, want)
		}
	}
}

// fuzzModulus maps a byte to a modulus for Uint64n and UniformSlice:
// small, a power of two, above 2^63 (half the draws rejected), near 2^40
// (the key limbs), 2^20 ± k or 2^62 ± k (the edges of the vector
// reduction's gate 2^20 ≤ q < 2^62), or 2^61 + k, inside the gate, which
// rejects 1/8 of the draws and so runs the kernel's compress store.
func fuzzModulus(p byte) uint64 {
	switch p % 6 {
	case 0:
		return uint64(p/6) + 1
	case 1:
		return 1 << (p / 4 % 64)
	case 2:
		return 1<<63 + uint64(p)
	case 3:
		return 1<<40 + uint64(p)*977 + 1
	case 4:
		edge, k := uint64(1)<<(20+42*(p/6%2)), uint64(p/24)*2+1
		if p/12%2 == 0 {
			return edge - k
		}
		return edge + k
	}
	return 1<<61 + uint64(p)
}

// TestUniformSliceKernelSelection pins the vector reduction's gate: with
// the kernel switch on, on a host with the IFMA kernels, exactly the
// moduli 2^20 ≤ q < 2^62 reduce at vector width; with it off, none.
func TestUniformSliceKernelSelection(t *testing.T) {
	defer simd.UseVectorKernels(true)
	for _, c := range []struct {
		q  uint64
		in bool
	}{{1<<20 - 1, false}, {1<<20 + 1, true}, {1<<40 - 87, true}, {1<<62 - 1, true}, {1<<62 + 1, false}, {1<<63 + 29, false}} {
		for _, on := range []bool{false, true} {
			simd.UseVectorKernels(on)
			if got, want := vectorUniform(c.q), c.in && on && simd.IFMA(); got != want {
				t.Errorf("q=%#x, switch on %v: vector reduction %v, want %v", c.q, on, got, want)
			}
		}
	}
	t.Logf("vector reduction for 2^20 ≤ q < 2^62 on this host: %v", simd.IFMA())
}

// TestUniformKernelEdges holds the vector reduction kernel to v mod q,
// rejections included, on the words where its quotient estimate can be
// one off: multiples of q and their neighbours (remainders near 0 and
// near q) across [0, 2^64), 2^64 − 1 and the words around the rejection
// limit, for moduli across the gate whose 1/q rounds up and down.
func TestUniformKernelEdges(t *testing.T) {
	if !simd.IFMA() {
		t.Skip("no IFMA kernels on this host: the vector reduction is not run")
	}
	r := mrand.New(mrand.NewPCG(40, 1))
	for _, q := range []uint64{1<<20 + 7, 1<<20 + 29, 1<<20 + 199, 1<<40 - 87, 1125899906949121,
		1<<53 + 1, 1<<61 - 1, 1<<61 + 15, 1<<62 - 57} {
		limit := -q % q
		in := []uint64{0, limit - 1, limit, limit + 1, ^uint64(0)}
		for range 4096 {
			m := r.Uint64N(^uint64(0) / q) // m·q + q − 1 < 2^64
			for _, d := range []uint64{0, 1, 2, q - 3, q - 2, q - 1} {
				in = append(in, m*q+d)
			}
		}
		in = in[:len(in)&^7]
		var want []uint64
		for _, v := range in {
			if v >= limit {
				want = append(want, v%q)
			}
		}
		got := make([]uint64, len(in))
		got = got[:uniformAVX512(got, in, q, limit, 1/float64(q))]
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("q=%#x: word %d = %d, want %d", q, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("q=%#x: %d words written, want %d", q, len(got), len(want))
		}
	}
}

// FuzzSource runs an interleaving of every Source method, each op two
// bytes (the method, its argument), against refSource on the same seed:
// on the scalar body, on the vector body, and with the kernel switch
// flipped by each op's argument, which moves epochs between the bodies
// mid-stream.
func FuzzSource(f *testing.F) {
	f.Add([]byte("ABCDEFGHIJKLMNOPQRSTUVWXYZ123456"), []byte{0, 0, 2, 255, 2, 130, 3, 13, 4, 0, 5, 0, 1, 9})
	f.Add([]byte{}, []byte{2, 250, 2, 251, 2, 252, 2, 253, 0, 1, 6, 7, 2, 254})
	f.Add([]byte{0xff}, []byte{3, 69, 3, 8, 1, 6, 1, 7, 1, 8, 4, 4, 4, 4, 2, 100, 6, 0, 0, 0})
	f.Add([]byte("key vault digit"), []byte{2, 123, 0, 0, 2, 124, 5, 1, 2, 125, 1, 255})
	// Mid-epoch starts into UniformSlice modulo the gate's edges (2^20 −
	// 1, 2^20 + 1, 2^62 − 1, 2^62 + 1) and 2^61 + k, the switch flipping
	// between the calls.
	f.Add([]byte("reduction at vector width"), []byte{0, 0, 2, 4, 2, 17, 0, 1, 2, 16, 2, 10, 2, 22, 3, 5, 2, 101, 2, 203, 0, 0, 2, 251})
	f.Fuzz(func(t *testing.T, seedBytes, ops []byte) {
		var seed [SeedSize]byte
		copy(seed[:], seedBytes)
		defer simd.UseVectorKernels(true)
		for _, mode := range []string{"scalar", "vector", "mixed"} {
			simd.UseVectorKernels(mode != "scalar")
			s, ref := NewSource(seed), newRefSource(seed)
			for i := 0; i+1 < len(ops); i += 2 {
				op, p := ops[i]%7, ops[i+1]
				if mode == "mixed" {
					simd.UseVectorKernels(p&1 == 1)
				}
				fail := func(got, want any) {
					t.Fatalf("%s: op %d (%d, %d): got %v, want %v", mode, i/2, op, p, got, want)
				}
				switch op {
				case 0:
					if v, want := s.Uint64(), ref.Uint64(); v != want {
						fail(v, want)
					}
				case 1:
					n := fuzzModulus(p)
					if v, want := s.Uint64n(n), ref.Uint64n(n); v != want {
						fail(v, want)
					}
				case 2:
					q := fuzzModulus(p)
					got, want := make([]uint64, 3*int(p)), make([]uint64, 3*int(p))
					s.UniformSlice(got, q)
					ref.UniformSlice(want, q)
					if !slices.Equal(got, want) {
						fail(got, want)
					}
				case 3:
					got, want := make([]byte, p%70), make([]byte, p%70)
					s.Fill(got)
					ref.Fill(want)
					if !slices.Equal(got, want) {
						fail(got, want)
					}
				case 4:
					if v, want := s.DeriveSeed(), ref.DeriveSeed(); v != want {
						fail(v, want)
					}
				case 5:
					if v, want := s.Float64(), ref.Float64(); v != want {
						fail(v, want)
					}
				case 6:
					seed[p%SeedSize] ^= p | 1
					s.Reseed(seed)
					ref.Reseed(seed)
				}
			}
			if v, want := s.Uint64(), ref.Uint64(); v != want {
				t.Fatalf("%s: streams at different positions after the ops: %#x, want %#x", mode, v, want)
			}
		}
	})
}

// TestSourceAllocs pins the key vault's expansion loop — Reseed, then
// UniformSlice and Uint64 reads — at zero allocations.
func TestSourceAllocs(t *testing.T) {
	var s Source
	out := make([]uint64, 4096)
	seed := testSeed(7)
	if n := testing.AllocsPerRun(100, func() {
		s.Reseed(seed)
		s.UniformSlice(out, 1<<40-87)
		s.UniformSlice(out[:100], 1<<20)
		s.Uint64()
	}); n != 0 {
		t.Errorf("Reseed + UniformSlice + Uint64: %v allocs, want 0", n)
	}
}

// benchBodies runs f under sub-benchmarks scalar, vector (where the CPU
// has AVX512F; UniformSlice reduces at vector width only where it also
// has the IFMA kernels) and stdlib; f's argument names the one it runs.
func benchBodies(b *testing.B, f func(b *testing.B, body string)) {
	defer simd.UseVectorKernels(true)
	for _, body := range []string{"scalar", "vector", "stdlib"} {
		if body == "vector" && !simd.AVX512F() {
			continue
		}
		simd.UseVectorKernels(body != "scalar")
		b.Run(body, func(b *testing.B) { f(b, body) })
	}
}

// BenchmarkKeystream reads 34 epochs (4216 words) one word at a time
// after a reseed.
func BenchmarkKeystream(b *testing.B) {
	const words = 34 * epochWords
	seed := testSeed(2)
	benchBodies(b, func(b *testing.B, body string) {
		b.SetBytes(8 * words)
		var x uint64
		if body == "stdlib" {
			var c mrand.ChaCha8
			for b.Loop() {
				c.Seed(seed)
				for range words {
					x ^= c.Uint64()
				}
			}
		} else {
			var s Source
			for b.Loop() {
				s.Reseed(seed)
				for range words {
					x ^= s.Uint64()
				}
			}
		}
		benchSink = x
	})
}

// BenchmarkUniformSlice expands one key limb, 4096 words, as the key
// vault does per limb at N = 2^12: modulo a 40-bit Q limb, modulo
// matvec_hoisted's first P limb (50 bits), and modulo 2^61 + 15, which
// rejects 1/8 of the draws.
func BenchmarkUniformSlice(b *testing.B) {
	moduli := []struct {
		name string
		q    uint64
	}{{"q=40bit", 1<<40 - 87}, {"q=50bit", 1125899906949121}, {"q=2^61+15", 1<<61 + 15}}
	seed := testSeed(3)
	out := make([]uint64, 4096)
	benchBodies(b, func(b *testing.B, body string) {
		for _, m := range moduli {
			b.Run(m.name, func(b *testing.B) {
				b.SetBytes(8 * int64(len(out)))
				if body == "stdlib" {
					var r refSource
					for b.Loop() {
						r.Reseed(seed)
						r.UniformSlice(out, m.q)
					}
					return
				}
				var s Source
				for b.Loop() {
					s.Reseed(seed)
					s.UniformSlice(out, m.q)
				}
			})
		}
	})
}

var benchSink uint64

// TestResumeAtLimbStarts expands a 6+2-limb key digit in one run, taking
// a Checkpoint before every limb, then resumes a second Source at each
// limb start and demands that limb's words. Limb 0's modulus is a power
// of two (every draw accepted) and its 248 words are two whole epochs, so
// limb 1 starts exactly on an epoch edge; limb 2's modulus, 2^63 + 29,
// rejects about half its draws, so limb 3 starts mid-epoch; the last P
// limb is resumed like the rest.
func TestResumeAtLimbStarts(t *testing.T) {
	const n = 2 * epochWords
	moduli := []uint64{1 << 50, 1<<40 + 1<<20 + 1, 1<<63 + 29, 1<<50 - 27, 1<<40 - 87, 1<<40 - 195, 1<<50 - 113, 1<<50 - 165}
	forEachBody(t, func(t *testing.T) {
		for k := range 3 {
			whole := NewSource(testSeed(k))
			marks := make([]Checkpoint, len(moduli))
			want := make([][]uint64, len(moduli))
			for l, q := range moduli {
				marks[l] = whole.Checkpoint()
				want[l] = make([]uint64, n)
				whole.UniformSlice(want[l], q)
			}
			if marks[1].used != 0 {
				t.Fatalf("seed %d: limb 1 starts %d words into an epoch, want on the edge", k, marks[1].used)
			}
			if marks[3].used == 0 {
				t.Fatalf("seed %d: limb 3 starts on an epoch edge, want mid-epoch", k)
			}
			var src Source
			for _, l := range []int{len(moduli) - 1, 3, 0, 1, 2, 4, 5, 6} { // out of order: Resume carries no history
				got := make([]uint64, n)
				src.Resume(marks[l])
				src.UniformSlice(got, moduli[l])
				if !slices.Equal(got, want[l]) {
					t.Errorf("seed %d: limb %d resumed at %+v differs from the uninterrupted stream", k, l, marks[l])
				}
			}
			// The stream after the last limb continues from a resume too.
			src.Resume(marks[len(moduli)-1])
			src.UniformSlice(make([]uint64, n), moduli[len(moduli)-1])
			if got, want := src.Uint64(), whole.Uint64(); got != want {
				t.Errorf("seed %d: word after the last limb %#x, want %#x", k, got, want)
			}
		}
	})
}
