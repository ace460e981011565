package rns

import (
	"runtime"
	"testing"

	"repro/internal/ring"
	"repro/internal/simd"
)

// workerCounts is the golden-equality matrix: serial, two workers, and
// every core the machine has.
func workerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// TestConverterBitIdenticalAcrossWorkers runs every Converter method with
// each worker count and demands bit-identical outputs: limb-parallel and
// coefficient-chunked execution must not change a single word.
func TestConverterBitIdenticalAcrossWorkers(t *testing.T) {
	ringQ, ringP := testRings(t, 64, 6, 2)
	conv := NewConverter(ringQ, ringP)
	src := fixedSource()
	levelQ := ringQ.MaxLevel()

	aQ := ringQ.NewPoly()
	ringQ.SampleUniform(src, aQ)
	aQ.IsNTT = true

	raised := conv.NewPolyQP(levelQ)
	ringQ.SampleUniform(src, raised.Q)
	ringP.SampleUniform(src, raised.P)
	raised.Q.IsNTT, raised.P.IsNTT = true, true

	type result struct {
		modUp   PolyQP
		modDown *ring.Poly
		rescale *ring.Poly
	}
	var golden result
	for i, w := range workerCounts() {
		var got result
		got.modUp = conv.NewPolyQP(levelQ)
		conv.ModUpDigit(levelQ, 0, 2, aQ, got.modUp, w)

		got.modDown = ringQ.NewPoly()
		conv.ModDown(levelQ, raised, got.modDown, w)

		got.rescale = ringQ.NewPoly()
		got.rescale.Coeffs = got.rescale.Coeffs[:levelQ]
		conv.Rescale(levelQ, aQ, got.rescale, w)

		if i == 0 {
			golden = got
			continue
		}
		if !got.modUp.Q.Equal(golden.modUp.Q) || !got.modUp.P.Equal(golden.modUp.P) {
			t.Errorf("ModUpDigit with %d workers differs from serial", w)
		}
		if !got.modDown.Equal(golden.modDown) {
			t.Errorf("ModDown with %d workers differs from serial", w)
		}
		if !got.rescale.Equal(golden.rescale) {
			t.Errorf("Rescale with %d workers differs from serial", w)
		}
	}
}

// TestConverterConcurrentUse hammers one Converter from many goroutines
// (distinct scratch, shared lazy table cache) — run under -race in CI —
// while the kernel switch flips: each kernel call reads it once, so a
// conversion writes the same words whichever kernels its calls ran on.
// The ring is large enough for the blocked NTT.
func TestConverterConcurrentUse(t *testing.T) {
	ringQ, ringP := testRings(t, 2*ring.NTTTile, 4, 2)
	conv := NewConverter(ringQ, ringP)
	src := fixedSource()
	levelQ := ringQ.MaxLevel()

	aQ := ringQ.NewPoly()
	ringQ.SampleUniform(src, aQ)
	aQ.IsNTT = true
	want := conv.NewPolyQP(levelQ)
	conv.ModUpDigit(levelQ, 0, 2, aQ, want, 1)

	const goroutines = 8
	done := make(chan bool, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			out := conv.NewPolyQP(levelQ)
			conv.ModUpDigit(levelQ, 0, 2, aQ, out, 2)
			down := ringQ.NewPoly()
			conv.ModDown(levelQ, want, down, 2)
			done <- out.Q.Equal(want.Q) && out.P.Equal(want.P)
		}()
	}
	defer simd.UseVectorKernels(true)
	for g := 0; g < goroutines; g++ {
		simd.UseVectorKernels(g%2 == 1)
		if !<-done {
			t.Fatal("concurrent ModUpDigit produced a different result")
		}
	}
}
