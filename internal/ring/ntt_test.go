package ring

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"repro/internal/mathutil"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/simd"
)

// nttTestSizes covers the single-phase path (n ≤ NTTTile) with the
// bootstrap shape 2^9, the boundary, and the blocked two-phase path
// (tile-straddling n > NTTTile) up to the mult_chain shape 2^13.
var nttTestSizes = []int{16, 64, 256, 512, 1024, NTTTile, 2 * NTTTile, 4 * NTTTile}

// kernelTestRing builds a ring of degree n on kernelTestModuli.
func kernelTestRing(t testing.TB, n int) *Ring {
	t.Helper()
	r, err := NewRing(n, kernelTestModuli(t, bits.Len(uint(n))-1))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// kernelTestModuli returns NTT primes for degree 2^logN that reach both
// NTT kernels and both vector loops. Two 45-bit primes and one just below
// 2^50 (the least room under the narrow loop's 4q < 2^52) run the narrow
// loop; one just above 2^50, as GenerateNTTPrimesNear draws for CKKS, and
// the largest below 2^51 (the least room under the wide loop's
// 2q < 2^52) run the wide loop — all where the CPU has IFMA. A 61-bit
// prime, against the modulus cap, always runs the scalar kernel.
func kernelTestModuli(t testing.TB, logN int) []uint64 {
	t.Helper()
	var moduli []uint64
	add := func(ps []uint64, err error) {
		if err != nil {
			t.Fatal(err)
		}
		moduli = append(moduli, ps...)
	}
	add(mathutil.GenerateNTTPrimes(45, logN, 2))
	add(mathutil.GenerateNTTPrimes(50, logN, 1))
	moduli = append(moduli, wideCKKSPrime(t, logN))
	add(mathutil.GenerateNTTPrimes(51, logN, 1))
	add(mathutil.GenerateNTTPrimes(61, logN, 1))
	return moduli
}

// wideCKKSPrime returns the first prime above 2^50 that
// GenerateNTTPrimesNear draws for 50-bit CKKS limbs at degree 2^logN.
func wideCKKSPrime(t testing.TB, logN int) uint64 {
	t.Helper()
	primes, err := mathutil.GenerateNTTPrimesNear(50, logN, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range primes {
		if q > 1<<50 {
			return q
		}
	}
	t.Fatalf("logN=%d: no prime above 2^50 among %v", logN, primes)
	return 0
}

// withKernels runs f once per kernel: "scalar" with the kernel switch
// off, then "vector" with every sub-ring back on the kernel newSubRing
// chose for it. The vector run is logged and skipped when this host has
// no vector kernels.
func withKernels(t testing.TB, f func(kernel string)) {
	t.Helper()
	defer simd.UseVectorKernels(true)
	host := simd.UseVectorKernels(false)
	f("scalar")
	if !host {
		t.Log("no vector kernels on this host; vector case skipped")
		return
	}
	simd.UseVectorKernels(true)
	f("vector")
}

// setKernel runs the rest of b on kernel: "scalar" with the kernel
// switch off, "vector" (skipped where s did not choose it) or any other
// name with it on. The switch is back on when b ends.
func setKernel(b *testing.B, s *SubRing, kernel string) {
	b.Cleanup(func() { simd.UseVectorKernels(true) })
	if kernel == "vector" && !s.vector {
		b.Skip("vector kernels not selected on this host")
	}
	simd.UseVectorKernels(kernel != "scalar")
}

// requireEqualPoly fails unless got and want hold the same words.
func requireEqualPoly(t *testing.T, got, want *Poly, what string) {
	t.Helper()
	for i := range want.Coeffs {
		for j := range want.Coeffs[i] {
			if got.Coeffs[i][j] != want.Coeffs[i][j] {
				t.Fatalf("%s: limb %d coeff %d = %d, reference %d",
					what, i, j, got.Coeffs[i][j], want.Coeffs[i][j])
			}
		}
	}
}

// TestNTTMatchesReference is the golden-oracle gate of the ring-level
// transforms: the fused/blocked NTT and INTT, scalar and vector, must be
// bit-identical to the retained reference kernels on every modulus,
// every size class and every worker count — not just equal mod q, equal
// as uint64 outputs, since downstream lazy arithmetic depends on the
// exact representatives. Inputs are uniform residues and the all-(q−1)
// limb, the largest canonical input. The per-limb kernels on every
// modulus class are rows of internal/rns's TestKernelsMatch.
func TestNTTMatchesReference(t *testing.T) {
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, n := range nttTestSizes {
		r := kernelTestRing(t, n)
		uniform := r.NewPoly()
		r.SampleUniform(fixedSource(), uniform)
		top := r.NewPoly()
		for i, s := range r.SubRings {
			for j := range top.Coeffs[i] {
				top.Coeffs[i][j] = s.Q - 1
			}
		}
		for _, in := range []struct {
			name string
			p    *Poly
		}{{"uniform", uniform}, {"q-1", top}} {
			want, backWant := in.p.CopyNew(), in.p.CopyNew()
			for i, s := range r.SubRings {
				s.NTTReference(want.Coeffs[i])
				s.INTTReference(backWant.Coeffs[i])
			}
			withKernels(t, func(kernel string) {
				// Every worker count: the parallel path shares
				// SubRing.NTT, so this also pins schedule-independence.
				for _, w := range workerCounts {
					what := fmt.Sprintf("n=%d %s kernel, %s input, workers=%d", n, kernel, in.name, w)
					got := in.p.CopyNew()
					r.NTTPolyParallel(got, w)
					requireEqualPoly(t, got, want, "NTT "+what)

					got = in.p.CopyNew()
					got.IsNTT = true
					r.INTTPolyParallel(got, w)
					requireEqualPoly(t, got, backWant, "INTT "+what)
				}
			})
		}
	}
}

// TestNTTKernelSelection pins the selection rule and the switch: a
// modulus at or above 2^51 (here 55 and 61 bits) always runs the scalar
// kernel, and every modulus below it — 45-bit, either side of 2^50, just
// below 2^51 — runs the kernel a 45-bit modulus does, the one the CPU
// supports. So does every 50-bit prime CKKS parameters draw at the
// benchmark ring sizes: on a host with the vector kernels no benchmark
// limb runs the scalar kernel. simd.UseVectorKernels(false) puts every
// sub-ring on its scalar kernel and simd.UseVectorKernels(true) back on its
// constructor's choice. It logs each choice, and the CPU probe's
// outcome, so a CI log shows whether the runner exercised the vector
// kernels.
func TestNTTKernelSelection(t *testing.T) {
	const logN = 10
	host := simd.UseVectorKernels(true)
	defer simd.UseVectorKernels(true)
	if host {
		t.Log("CPU probe: AVX512F, AVX512DQ, AVX512IFMA and OS-saved ZMM state present; vector kernels for q < 2^51")
	} else {
		t.Log("CPU probe: AVX512F, AVX512DQ, AVX512IFMA or OS-saved ZMM state missing (or not amd64); scalar kernels only")
	}
	extra, err := mathutil.GenerateNTTPrimes(55, logN, 1)
	if err != nil {
		t.Fatal(err)
	}
	var subRings []*SubRing
	for _, q := range append(kernelTestModuli(t, logN), extra...) {
		s, err := newSubRing(1<<logN, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := host && q < 1<<51; s.vector != want {
			t.Errorf("q = %d (%d bits) chooses the vector kernel = %v, want %v", q, bits.Len64(q), s.vector, want)
		}
		t.Logf("q = %d (%d bits): vector kernel %v", q, bits.Len64(q), s.vector)
		subRings = append(subRings, s)
	}
	for _, logN := range []int{9, 11, 12, 13} {
		primes, err := mathutil.GenerateNTTPrimesNear(50, logN, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range primes {
			s, err := newSubRing(1<<logN, q)
			if err != nil {
				t.Fatal(err)
			}
			if s.vector != host {
				t.Errorf("logN=%d: CKKS prime q = %d chooses the vector kernel = %v, want %v", logN, q, s.vector, host)
			}
		}
	}
	for _, on := range []bool{false, true} {
		simd.UseVectorKernels(on)
		for _, s := range subRings {
			if got := s.vectorKernel(); got != (on && s.vector) {
				t.Errorf("UseVectorKernels(%v): q = %d runs the vector kernel = %v, want %v", on, s.Q, got, on && s.vector)
			}
		}
	}
}

// TestNTTPasses pins the pass count the byte counters, the memtrace
// replay and the analytic model all share.
func TestNTTPasses(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{16, 1}, {1024, 1}, {NTTTile, 1}, {2 * NTTTile, 2}, {8 * NTTTile, 2},
	} {
		if got := NTTPasses(tc.n); got != tc.want {
			t.Errorf("NTTPasses(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestNTTTrafficCountersMatchTrace is the counter-accuracy gate: the
// ring.ntt.bytes / ring.intt.bytes counters must equal the bytes the
// kernel actually records in the memory trace — 16·N on the single-phase
// path, 32·N on the blocked path (one read+write per element per phase,
// revisited tiles never double-counted) — not the historical one-pass
// assumption.
func TestNTTTrafficCountersMatchTrace(t *testing.T) {
	for _, n := range []int{1024, 2 * NTTTile, 4 * NTTTile} {
		r := testRing(t, n, 1)
		src := fixedSource()
		p := r.NewPoly()
		r.SampleUniform(src, p)
		withKernels(t, func(kernel string) {
			for _, dir := range []string{"ntt", "intt"} {
				rec := obs.NewRecorder()
				tr := memtrace.New()
				r.SetRecorder(rec)
				r.SetTracer(tr)
				if dir == "ntt" {
					r.SubRings[0].NTT(p.Coeffs[0])
				} else {
					r.SubRings[0].INTT(p.Coeffs[0])
				}
				r.SetRecorder(nil)
				r.SetTracer(nil)

				var traced uint64
				for _, ev := range tr.Events() {
					if !ev.Discard && ev.Class == memtrace.ClassCt {
						traced += uint64(ev.Bytes)
					}
				}
				counter := rec.Counter("ring." + dir + ".bytes")
				want := uint64(16*n) * uint64(NTTPasses(n))
				if counter != want {
					t.Errorf("n=%d %s: ring.%s.bytes = %d, want %d (%d passes)",
						n, kernel, dir, counter, want, NTTPasses(n))
				}
				if counter != traced {
					t.Errorf("n=%d %s: ring.%s.bytes = %d but trace records %d bytes",
						n, kernel, dir, counter, traced)
				}
				if got := rec.Counter("ring." + dir); got != 1 {
					t.Errorf("n=%d %s: ring.%s = %d, want 1", n, kernel, dir, got)
				}
			}
		})
	}
}

// TestNTTBlockedTrafficMatchesCacheReplay replays the blocked kernel's
// recorded access pattern through the memtrace cache simulator at a
// deliberately tiny capacity (every pass goes to DRAM) and checks the
// measured traffic agrees with the kernel's own byte counter up to
// line-granularity effects — the access stream the counter summarizes is
// the one the cache sim actually sees.
//
// The same trace also carries the kernel's memory-schedule gate: replayed
// at a 32 KiB scratchpad (twice a 16 KiB tile, half this 64 KiB limb) the
// blocked kernel must move at least 1.5x fewer DRAM bytes than the
// reference schedule, which sweeps the whole limb once per butterfly
// stage plus once for the exact-reduction epilogue — what NTTReference
// and INTTReference do by construction. `go test -v` logs the ratio
// docs/PERF.md quotes.
func TestNTTBlockedTrafficMatchesCacheReplay(t *testing.T) {
	n := 4 * NTTTile
	r := testRing(t, n, 1)
	src := fixedSource()
	p := r.NewPoly()
	r.SampleUniform(src, p)

	rec := obs.NewRecorder()
	tr := memtrace.New()
	r.SetRecorder(rec)
	r.SetTracer(tr)
	r.SubRings[0].NTT(p.Coeffs[0])
	r.SubRings[0].INTT(p.Coeffs[0])
	r.SetRecorder(nil)
	r.SetTracer(nil)

	geo := memtrace.Geometry{CapacityBytes: 1 << 10} // 1 KiB: streaming, no reuse
	traffic := memtrace.Measure(tr.Events(), geo, nil)
	measured := traffic.Total()
	counted := rec.Counter("ring.ntt.bytes") + rec.Counter("ring.intt.bytes")

	// Line chopping can add at most one 64-byte line per recorded event
	// (unaligned ends) and residual cache content stays under capacity.
	slack := uint64(len(tr.Events()))*memtrace.DefaultLineBytes + geo.CapacityBytes
	diff := measured - counted
	if measured < counted {
		diff = counted - measured
	}
	if diff > slack {
		t.Fatalf("cache replay measured %d bytes, counters say %d (slack %d)",
			measured, counted, slack)
	}

	scratchpad := memtrace.Geometry{CapacityBytes: 32 << 10}
	refTr := memtrace.New()
	sweeps := 2 * bits.Len(uint(n)) // NTT and INTT: log2 N stages + 1 epilogue each
	for i := 0; i < sweeps; i++ {
		refTr.Read(p.Coeffs[0])
		refTr.Write(p.Coeffs[0])
	}
	blocked := memtrace.Measure(tr.Events(), scratchpad, nil).Total()
	reference := memtrace.Measure(refTr.Events(), scratchpad, nil).Total()
	ratio := float64(reference) / float64(blocked)
	t.Logf("n=%d at %d KiB: reference schedule %d B, blocked kernel %d B, traffic ratio %.2fx",
		n, scratchpad.CapacityBytes>>10, reference, blocked, ratio)
	if ratio < 1.5 {
		t.Errorf("blocked NTT+INTT moves %d B against the reference schedule's %d B (%.2fx), want >= 1.5x",
			blocked, reference, ratio)
	}
}

// TestNTTAllocFree pins the steady-state allocation contract of both
// kernel paths, on both kernels: pooled column-block scratch means zero
// allocations per transform after warm-up, on the serial and the
// worker-pool paths alike.
func TestNTTAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector (instrumented allocations, random sync.Pool drops)")
	}
	for _, n := range []int{1024, 4 * NTTTile} {
		r := testRing(t, n, 2)
		src := fixedSource()
		p := r.NewPoly()
		r.SampleUniform(src, p)
		withKernels(t, func(kernel string) {
			r.NTTPoly(p) // warm the scratch pool
			r.INTTPoly(p)

			allocs := testing.AllocsPerRun(10, func() {
				r.NTTPoly(p)
				r.INTTPoly(p)
			})
			if allocs != 0 {
				t.Errorf("n=%d %s: NTT+INTT round trip allocates %.1f objects/op, want 0", n, kernel, allocs)
			}
		})
	}
}

// TestNTTScratchPoolCounters checks the blocked path draws its scratch
// through the observable pool: gets on every blocked transform, misses
// only while buffers are first sized.
func TestNTTScratchPoolCounters(t *testing.T) {
	n := 2 * NTTTile
	r := testRing(t, n, 1)
	src := fixedSource()
	p := r.NewPoly()
	r.SampleUniform(src, p)

	rec := obs.NewRecorder()
	r.SetRecorder(rec)
	r.SubRings[0].NTT(p.Coeffs[0])
	r.SubRings[0].INTT(p.Coeffs[0])
	r.SetRecorder(nil)

	if got := rec.Counter("ring.nttpool.get"); got != 2 {
		t.Errorf("ring.nttpool.get = %d, want 2", got)
	}
	if gets, misses := rec.Counter("ring.nttpool.get"), rec.Counter("ring.nttpool.miss"); misses > gets {
		t.Errorf("ring.nttpool.miss = %d exceeds gets = %d", misses, gets)
	}
}

// BenchmarkNTT times the forward transform of one limb at the bootstrap
// shape 2^9, at 2^10 and at the mult_chain shape 4·NTTTile = 2^13, on a
// 45-bit modulus and on one just above 2^50, the kind CKKS parameters
// draw: "scalar" and "vector" run SubRing.NTT with that kernel forced,
// "reference" runs the retained NTTReference oracle.
func BenchmarkNTT(b *testing.B) {
	benchNTTKernels(b, (*SubRing).NTT, (*SubRing).NTTReference)
}

// BenchmarkINTT mirrors BenchmarkNTT for the inverse transform.
func BenchmarkINTT(b *testing.B) {
	benchNTTKernels(b, (*SubRing).INTT, (*SubRing).INTTReference)
}

func benchNTTKernels(b *testing.B, transform, reference func(*SubRing, []uint64)) {
	for _, n := range []int{512, 1024, 4 * NTTTile} {
		logN := bits.Len(uint(n)) - 1
		narrow, err := mathutil.GenerateNTTPrimes(45, logN, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []struct {
			name string
			q    uint64
		}{{"45bit", narrow[0]}, {"2^50+k", wideCKKSPrime(b, logN)}} {
			r, err := NewRing(n, []uint64{m.q})
			if err != nil {
				b.Fatal(err)
			}
			p := r.NewPoly()
			r.SampleUniform(fixedSource(), p)
			s := r.SubRings[0]
			for _, kernel := range []string{"scalar", "vector", "reference"} {
				b.Run(fmt.Sprintf("n=%d/q=%s/%s", n, m.name, kernel), func(b *testing.B) {
					setKernel(b, s, kernel)
					run := transform
					if kernel == "reference" {
						run = reference
					}
					b.ReportAllocs()
					for b.Loop() {
						run(s, p.Coeffs[0])
					}
				})
			}
		}
	}
}
