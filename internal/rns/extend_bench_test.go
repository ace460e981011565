package rns

import (
	"fmt"
	"testing"

	"repro/internal/mathutil"
	"repro/internal/ring"
	"repro/internal/simd"
)

// benchBases builds a bootstrap-scale modulus layout: an 18-limb Q chain
// and a 3-limb P basis of the CKKS primes around 2^50 the workloads draw
// (GenerateNTTPrimesNear) at degree 2^13 — the shape of the raised basis
// inside key switching at full depth, on limbs the vector stages serve.
func benchBases(b *testing.B) (q, p []uint64) {
	b.Helper()
	primes, err := mathutil.GenerateNTTPrimesNear(50, 13, 21)
	if err != nil {
		b.Fatal(err)
	}
	return primes[:18], primes[18:]
}

func benchInput(tab *ExtTable, n int) (src, dst [][]uint64) {
	s := fixedSource()
	src = makeLimbs(len(tab.In), n)
	for i, q := range tab.In {
		for c := range src[i] {
			src[i][c] = s.Uint64() % q
		}
	}
	return src, makeLimbs(len(tab.Out), n)
}

// BenchmarkExtend sweeps the basis-pair shapes key switching exercises —
// the ModUp digit extension (narrow → wide), the ModDown correction
// (P → Q, narrow → wide) and the full-width decomposition (wide → narrow)
// at N = 2^13, and the bootstrap workload's two at N = 2^9 (a 3-limb
// digit raised to 17 limbs, the merged division's {P, q_ℓ} to 16) —
// comparing the tiled lazy kernel, with the scalar and the vector stages
// 1 and 2, against the retained scalar oracle.
func BenchmarkExtend(b *testing.B) {
	qMod, pMod := benchBases(b)
	shapes := []struct {
		name    string
		n       int
		in, out []uint64
	}{
		{"modup_digit_3to18", 1 << 13, qMod[:3], append(append([]uint64(nil), qMod[3:]...), pMod...)},
		{"moddown_3to18", 1 << 13, pMod, qMod},
		{"wide_18to3", 1 << 13, qMod, pMod},
		{"N512/modup_digit_3to17", 1 << 9, qMod[:3], append(append([]uint64(nil), qMod[3:17]...), pMod...)},
		{"N512/moddown_merged_4to16", 1 << 9, append(append([]uint64(nil), pMod...), qMod[16]), qMod[:16]},
	}
	for _, sh := range shapes {
		n := sh.n
		tab := NewExtTable(sh.in, sh.out)
		src, dst := benchInput(tab, n)
		for _, kernel := range []string{"scalar", "vector"} {
			b.Run(sh.name+"/lazy/kernel="+kernel, func(b *testing.B) {
				if kernel == "vector" && !tab.vector {
					b.Skip("vector stages not selected on this host")
				}
				simd.UseVectorKernels(kernel == "vector")
				defer simd.UseVectorKernels(true)
				b.ReportAllocs()
				b.SetBytes(int64(8 * n * (len(sh.in) + len(sh.out))))
				for i := 0; i < b.N; i++ {
					tab.Extend(src, dst)
				}
			})
		}
		b.Run(sh.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * n * (len(sh.in) + len(sh.out))))
			for i := 0; i < b.N; i++ {
				tab.ExtendReference(src, dst)
			}
		})
	}
}

// BenchmarkModUp measures the full ModUpDigit pipeline (iNTT → NewLimb →
// NTT) at bootstrap scale, workers=1; steady state must report 0 allocs/op.
func BenchmarkModUp(b *testing.B) {
	qMod, pMod := benchBases(b)
	ringQ, err := ring.NewRing(1<<13, qMod)
	if err != nil {
		b.Fatal(err)
	}
	ringP, err := ring.NewRing(1<<13, pMod)
	if err != nil {
		b.Fatal(err)
	}
	conv := NewConverter(ringQ, ringP)
	src := fixedSource()
	levelQ := ringQ.MaxLevel()
	aQ := ringQ.NewPoly()
	ringQ.SampleUniform(src, aQ)
	aQ.IsNTT = true
	out := conv.NewPolyQP(levelQ)
	conv.ModUpDigit(levelQ, 0, 3, aQ, out, 1) // warm tables and pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.ModUpDigit(levelQ, 0, 3, aQ, out, 1)
	}
}

// BenchmarkModDown measures Algorithm 2 at bootstrap scale, workers=1;
// steady state must report 0 allocs/op.
func BenchmarkModDown(b *testing.B) { benchModDown(b, (*Converter).ModDown) }

// BenchmarkModDownMerged is the same input through the division by P·q_ℓ
// (§3.2 ModDown merge): one more iNTT and one forward NTT fewer than
// ModDown alone, with the Rescale's ℓ+1 transforms gone altogether.
func BenchmarkModDownMerged(b *testing.B) { benchModDown(b, (*Converter).ModDownRescale) }

func benchModDown(b *testing.B, div func(c *Converter, levelQ int, a PolyQP, out *ring.Poly, workers int)) {
	qMod, pMod := benchBases(b)
	ringQ, err := ring.NewRing(1<<13, qMod)
	if err != nil {
		b.Fatal(err)
	}
	ringP, err := ring.NewRing(1<<13, pMod)
	if err != nil {
		b.Fatal(err)
	}
	conv := NewConverter(ringQ, ringP)
	src := fixedSource()
	levelQ := ringQ.MaxLevel()
	a := conv.NewPolyQP(levelQ)
	ringQ.SampleUniform(src, a.Q)
	ringP.SampleUniform(src, a.P)
	a.Q.IsNTT, a.P.IsNTT = true, true
	out := ringQ.NewPoly()
	div(conv, levelQ, a, out, 1) // warm tables and pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Resize(levelQ + 1)
		div(conv, levelQ, a, out, 1)
	}
}

// BenchmarkTableKey pins the table-cache hit path: the structural key
// must keep the lookup allocation-free and off the conversion profile
// (the old fmt.Sprint key cost ~1µs and several allocations per hit).
func BenchmarkTableKey(b *testing.B) {
	qMod, pMod := benchBases(b)
	ringQ, _ := ring.NewRing(1<<13, qMod)
	ringP, _ := ring.NewRing(1<<13, pMod)
	conv := NewConverter(ringQ, ringP)
	conv.table(pMod, qMod, false) // populate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if conv.table(pMod, qMod, false) == nil {
			b.Fatal("nil table")
		}
	}
}

// TestTableKeyTellsMergedBasesApart pins what the merged division relies
// on: its input bases {p_0 … p_{α−1}, q_ℓ} share first modulus and length
// for every ℓ, and first modulus with the plain P basis, yet each maps to
// its own key and Converter.table returns the table of the basis asked for.
func TestTableKeyTellsMergedBasesApart(t *testing.T) {
	ringQ, ringP := testRings(t, 32, 17, 3)
	conv := NewConverter(ringQ, ringP)
	bases := [][]uint64{ringP.Moduli}
	for l := 1; l <= ringQ.MaxLevel(); l++ {
		bases = append(bases, append(append([]uint64(nil), ringP.Moduli...), ringQ.Moduli[l]))
	}
	// One fixed output basis, so only the input side can tell keys apart.
	out := ringQ.Moduli[:1]
	seen := map[tableKey]int{}
	for k, in := range bases {
		key := makeTableKey(in, out, false)
		if prev, dup := seen[key]; dup {
			t.Errorf("bases %d and %d share a table key", prev, k)
		}
		seen[key] = k
	}
	for round := 0; round < 2; round++ { // the miss path, then the hit path
		for k, in := range bases {
			tab := conv.table(in, out, false)
			if len(tab.In) != len(in) {
				t.Fatalf("basis %d: table has %d input limbs, want %d", k, len(tab.In), len(in))
			}
			for i := range in {
				if tab.In[i] != in[i] {
					t.Errorf("basis %d: table input limb %d is %d, want %d", k, i, tab.In[i], in[i])
				}
			}
		}
	}
}

// BenchmarkExtendTileSweep documents the tile-size choice in docs/PERF.md:
// it re-tiles the ModDown-shaped conversion at several block widths by
// chunking the coefficient axis explicitly through extendParallel's serial
// path.
func BenchmarkExtendTileSweep(b *testing.B) {
	const n = 1 << 13
	qMod, pMod := benchBases(b)
	tab := NewExtTable(pMod, qMod)
	src, dst := benchInput(tab, n)
	for _, block := range []int{64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("block%d", block), func(b *testing.B) {
			v := getViews(len(src), len(dst))
			defer putViews(v)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for c0 := 0; c0 < n; c0 += block {
					end := min(c0+block, n)
					for k := range src {
						v.src[k] = src[k][c0:end]
					}
					for k := range dst {
						v.dst[k] = dst[k][c0:end]
					}
					tab.Extend(v.src, v.dst)
				}
			}
		})
	}
}
