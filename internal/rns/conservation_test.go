package rns

import (
	"testing"

	"repro/internal/memtrace"
)

// TestRescaleTrafficConservation pins the conservation identity that makes
// the infinite-cache replay trustworthy: with compulsory misses only, the
// measured DRAM traffic of one Rescale is exactly its dataflow footprint —
// every input limb read once, every output limb written once, and nothing
// else. The scratch correction limbs are declared dead (Tracer.Discard)
// before they can be written back, key/plaintext classes never appear, and
// repeated touches of resident rows cost nothing.
//
// The bounds allow one cache line of slack per limb row: the simulator
// charges whole 64-byte lines, and Go does not align slice backing arrays
// to line boundaries.
func TestRescaleTrafficConservation(t *testing.T) {
	ringQ, ringP := testRings(t, 256, 6, 2)
	conv := NewConverter(ringQ, ringP)
	src := fixedSource()

	a := ringQ.NewPoly()
	ringQ.SampleUniform(src, a)
	a.IsNTT = true
	out := ringQ.NewPoly()
	levelQ := ringQ.MaxLevel()

	// Warm the scratch pools untraced so pool growth is outside the window.
	conv.Rescale(levelQ, a, out, 1)

	tr := memtrace.New()
	conv.SetTracer(tr)
	ringQ.SetTracer(tr)
	defer func() {
		conv.SetTracer(nil)
		ringQ.SetTracer(nil)
	}()
	conv.Rescale(levelQ, a, out, 1)

	trf := memtrace.Measure(tr.Events(), memtrace.Geometry{}, tr.Classify)

	row := uint64(ringQ.N) * 8
	wantRead := uint64(levelQ+1) * row // all input limbs, once
	wantWrite := uint64(levelQ) * row  // all output limbs, once
	slack := uint64(64 * (levelQ + 2)) // ≤ one extra line per unaligned row

	if r := trf.ReadBytes[memtrace.ClassCt]; r < wantRead || r > wantRead+slack {
		t.Errorf("ct read = %d, want %d (+≤%d line slack)", r, wantRead, slack)
	}
	if w := trf.WriteBytes[memtrace.ClassCt]; w < wantWrite || w > wantWrite+slack {
		t.Errorf("ct write = %d, want %d (+≤%d line slack)", w, wantWrite, slack)
	}
	if s := trf.ReadBytes[memtrace.ClassScratch] + trf.WriteBytes[memtrace.ClassScratch]; s != 0 {
		t.Errorf("scratch traffic = %d bytes, want 0 (correction limbs are discarded in cache)", s)
	}
	if k := trf.ReadBytes[memtrace.ClassKey] + trf.WriteBytes[memtrace.ClassKey]; k != 0 {
		t.Errorf("key traffic = %d bytes, want 0", k)
	}
	if p := trf.ReadBytes[memtrace.ClassPt] + trf.WriteBytes[memtrace.ClassPt]; p != 0 {
		t.Errorf("pt traffic = %d bytes, want 0", p)
	}
}
