package ring

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"repro/internal/memtrace"
	"repro/internal/obs"
)

// nttTestSizes covers the single-phase path (n ≤ NTTTile), the boundary,
// and the blocked two-phase path (tile-straddling n > NTTTile).
var nttTestSizes = []int{16, 64, 256, 1024, NTTTile, 2 * NTTTile, 4 * NTTTile}

// TestNTTMatchesReference is the golden-oracle gate of the kernel
// rewrite: the fused/blocked NTT and INTT must be bit-identical to the
// retained reference kernels on every modulus, every size class and
// every worker count — not just equal mod q, equal as uint64 outputs,
// since downstream lazy arithmetic depends on the exact representatives.
func TestNTTMatchesReference(t *testing.T) {
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, n := range nttTestSizes {
		r := testRing(t, n, 3)
		src := fixedSource()
		seed := r.NewPoly()
		r.SampleUniform(src, seed)

		// Forward: reference per limb vs the fused kernel at every
		// worker count (the parallel path shares SubRing.NTT, so this
		// also pins schedule-independence of the results).
		want := seed.CopyNew()
		for i, s := range r.SubRings {
			s.NTTReference(want.Coeffs[i])
		}
		for _, w := range workerCounts {
			got := seed.CopyNew()
			r.NTTPolyParallel(got, w)
			for i := range got.Coeffs {
				for j := range got.Coeffs[i] {
					if got.Coeffs[i][j] != want.Coeffs[i][j] {
						t.Fatalf("n=%d workers=%d: NTT limb %d coeff %d = %d, reference %d",
							n, w, i, j, got.Coeffs[i][j], want.Coeffs[i][j])
					}
				}
			}
		}

		// Inverse: start from the (verified) forward output.
		backWant := want.CopyNew()
		for i, s := range r.SubRings {
			s.INTTReference(backWant.Coeffs[i])
		}
		for _, w := range workerCounts {
			got := want.CopyNew()
			got.IsNTT = true
			r.INTTPolyParallel(got, w)
			for i := range got.Coeffs {
				for j := range got.Coeffs[i] {
					if got.Coeffs[i][j] != backWant.Coeffs[i][j] {
						t.Fatalf("n=%d workers=%d: INTT limb %d coeff %d = %d, reference %d",
							n, w, i, j, got.Coeffs[i][j], backWant.Coeffs[i][j])
					}
				}
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
				t.Errorf("n=%d: ring.%s.bytes = %d, want %d (%d passes)",
					n, dir, counter, want, NTTPasses(n))
			}
			if counter != traced {
				t.Errorf("n=%d: ring.%s.bytes = %d but trace records %d bytes",
					n, dir, counter, traced)
			}
			if got := rec.Counter("ring." + dir); got != 1 {
				t.Errorf("n=%d: ring.%s = %d, want 1", n, dir, got)
			}
		}
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
// kernel paths: pooled column-block scratch means zero allocations per
// transform after warm-up, on the serial and the worker-pool paths alike.
func TestNTTAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector (instrumented allocations, random sync.Pool drops)")
	}
	for _, n := range []int{1024, 4 * NTTTile} {
		r := testRing(t, n, 2)
		src := fixedSource()
		p := r.NewPoly()
		r.SampleUniform(src, p)
		r.NTTPoly(p) // warm the scratch pool
		r.INTTPoly(p)

		allocs := testing.AllocsPerRun(10, func() {
			r.NTTPoly(p)
			r.INTTPoly(p)
		})
		if allocs != 0 {
			t.Errorf("n=%d: NTT+INTT round trip allocates %.1f objects/op, want 0", n, allocs)
		}
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

// BenchmarkNTT measures the fused/blocked kernel against the retained
// reference at the size classes the CI smoke bench exercises.
func BenchmarkNTT(b *testing.B) {
	for _, n := range []int{1024, 4 * NTTTile} {
		r := testRing(b, n, 1)
		src := fixedSource()
		p := r.NewPoly()
		r.SampleUniform(src, p)
		s := r.SubRings[0]
		b.Run(fmt.Sprintf("fused/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.NTT(p.Coeffs[0])
			}
		})
		b.Run(fmt.Sprintf("reference/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.NTTReference(p.Coeffs[0])
			}
		})
	}
}

// BenchmarkINTT mirrors BenchmarkNTT for the inverse transform.
func BenchmarkINTT(b *testing.B) {
	for _, n := range []int{1024, 4 * NTTTile} {
		r := testRing(b, n, 1)
		src := fixedSource()
		p := r.NewPoly()
		r.SampleUniform(src, p)
		s := r.SubRings[0]
		b.Run(fmt.Sprintf("fused/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.INTT(p.Coeffs[0])
			}
		})
		b.Run(fmt.Sprintf("reference/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.INTTReference(p.Coeffs[0])
			}
		})
	}
}
