package ckks

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/oracle"
	"repro/internal/ring"
)

// chainQ returns a modulus chain of one first-size prime and n rest-size.
func chainQ(first, rest, n int) []int {
	out := []int{first}
	for i := 0; i < n; i++ {
		out = append(out, rest)
	}
	return out
}

// decodeChains are the parameter sets Decode is held to the oracle on: the
// three library benchmark workloads, the fhed tenants (the default shape
// and the bootstrap one) and one chain of 60-bit primes.
var decodeChains = []struct {
	name string
	lit  ParametersLiteral
}{
	{"mult_chain", ParametersLiteral{LogN: 13, LogQ: chainQ(50, 40, 8), LogP: []int{50, 50, 50}, LogScale: 40}},
	{"matvec_hoisted", ParametersLiteral{LogN: 12, LogQ: chainQ(50, 40, 5), LogP: []int{50, 50}, LogScale: 40}},
	{"bootstrap", ParametersLiteral{LogN: 9, LogQ: chainQ(48, 40, 16), LogP: []int{50, 50, 50}, LogScale: 40}},
	{"fhed", ParametersLiteral{LogN: 11, LogQ: chainQ(50, 40, 4), LogP: []int{50, 50}, LogScale: 40}},
	{"fhed_bootstrap", ParametersLiteral{LogN: 10, LogQ: chainQ(48, 40, 16), LogP: []int{50, 50, 50}, LogScale: 40}},
	{"60bit", ParametersLiteral{LogN: 10, LogQ: chainQ(60, 60, 7), LogP: []int{60}, LogScale: 50}},
}

// decodeCases returns the centered coefficients that stress the
// composition at modulus Q: 0, ±1, ±⌊Q/2⌋, ±(2^k ± 1), the exact float64
// ties ±(2^k + 2^(k−53)), and the same ties with one more bit set below
// the 64-bit window the conversion rounds from.
func decodeCases(bigQ *big.Int) []*big.Int {
	half := new(big.Int).Rsh(bigQ, 1)
	out := []*big.Int{big.NewInt(0)}
	add := func(v *big.Int) {
		if v.CmpAbs(half) <= 0 {
			out = append(out, v, new(big.Int).Neg(v))
		}
	}
	pow := func(k int) *big.Int { return new(big.Int).Lsh(big.NewInt(1), uint(k)) }
	add(big.NewInt(1))
	add(half)
	for k := 1; k < half.BitLen(); k++ {
		add(new(big.Int).Add(pow(k), big.NewInt(1)))
		add(new(big.Int).Sub(pow(k), big.NewInt(1)))
		if k >= 53 {
			tie := new(big.Int).Add(pow(k), pow(k-53))
			add(tie)
			add(new(big.Int).Add(tie, pow(k-52))) // a tie that rounds up to even
		}
		if k >= 64 {
			tie := new(big.Int).Add(pow(k), pow(k-53))
			add(tie.Add(tie, pow(k-64)))
		}
	}
	return out
}

// oracleSlots decodes the oracle's coefficients with the encoder's FFT, as
// Decode does after its composition.
func oracleSlots(e *Encoder, coeffs []float64, scale float64) []complex128 {
	n := len(coeffs) / 2
	vals := make([]complex128, n)
	inv := 1 / scale
	for j := range vals {
		vals[j] = complex(coeffs[j]*inv, coeffs[j+n]*inv)
	}
	e.specialFFT(vals)
	return vals
}

// checkDecode decodes the coefficient-form poly at level and compares every
// composed coefficient and every slot with the oracle, bit for bit.
func checkDecode(t testing.TB, e *Encoder, level int, poly *ring.Poly) {
	t.Helper()
	p := e.params
	rQ := p.RingQ().AtLevel(level)
	want := oracle.SignedCoeffs(rQ, poly)
	tab := e.crt[level]
	acc := make([]uint64, tab.words())
	for j, w := range want {
		if got := tab.signed(poly.Coeffs, j, acc); math.Float64bits(got) != math.Float64bits(w) {
			v := oracle.Centered(oracle.CRTCompose(rQ, poly)[j], oracle.Modulus(rQ.Moduli))
			t.Fatalf("level %d coefficient %d = %v: got %v, want %v", level, j, v, got, w)
		}
	}
	ntt := poly.CopyNew()
	rQ.NTTPoly(ntt)
	got := e.Decode(&Plaintext{Value: ntt, Scale: p.Scale(), Level: level})
	for j, w := range oracleSlots(e, want, p.Scale()) {
		if math.Float64bits(real(got[j])) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(got[j])) != math.Float64bits(imag(w)) {
			t.Fatalf("level %d slot %d: got %v, want %v", level, j, got[j], w)
		}
	}
}

// randomResidues fills poly's limbs with uniform residues.
func randomResidues(r *rand.Rand, rQ *ring.Ring, poly *ring.Poly) {
	for i, q := range rQ.Moduli {
		for j := range poly.Coeffs[i] {
			poly.Coeffs[i][j] = r.Uint64N(q)
		}
	}
	poly.IsNTT = false
}

// TestDecodeMatchesOracle holds Decode's word-arithmetic composition to the
// math/big oracle at every level of every chain in decodeChains: every
// coefficient and every slot carries the same float64 bits. The stress
// cases of decodeCases fill the first coefficients, uniform residues the
// rest.
func TestDecodeMatchesOracle(t *testing.T) {
	for _, c := range decodeChains {
		t.Run(c.name, func(t *testing.T) {
			p, err := NewParameters(c.lit)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEncoder(p)
			r := rand.New(rand.NewPCG(uint64(p.LogN()), 38))
			for level := 0; level <= p.MaxLevel(); level++ {
				rQ := p.RingQ().AtLevel(level)
				cases := decodeCases(oracle.Modulus(rQ.Moduli))
				for len(cases) > 0 {
					poly := rQ.NewPoly()
					randomResidues(r, rQ, poly)
					k := min(len(cases), p.N())
					big := oracle.CRTCompose(rQ, poly)
					copy(big, cases[:k])
					oracle.CRTDecompose(rQ, big, poly)
					cases = cases[k:]
					checkDecode(t, e, level, poly)
				}
			}
		})
	}
}

// FuzzDecode draws one polynomial at one level of one chain (at N = 2^5,
// so each input is cheap) and holds Decode to the oracle. width = 0 draws
// uniform residues. Otherwise the coefficients are centered integers of
// the low 15 bits of width in bits, which reach the small magnitudes and
// the rounding boundaries uniform residues almost never hit; with the top
// bit of width set they are that far from ±⌊Q/2⌋ instead, where the
// estimate of k can be off by one.
func FuzzDecode(f *testing.F) {
	encs := make([]*Encoder, len(decodeChains))
	for i, c := range decodeChains {
		lit := c.lit
		lit.LogN = 5
		p, err := NewParameters(lit)
		if err != nil {
			f.Fatal(err)
		}
		encs[i] = NewEncoder(p)
	}
	for i := range decodeChains {
		f.Add(uint64(i), uint8(i), uint8(255), uint16(0))
		f.Add(uint64(i), uint8(i), uint8(0), uint16(60+i))
		f.Add(uint64(i), uint8(i), uint8(255), uint16(0x8000|i))
	}
	f.Fuzz(func(t *testing.T, seed uint64, chain, level uint8, width uint16) {
		e := encs[int(chain)%len(encs)]
		p := e.params
		lvl := int(level) % (p.MaxLevel() + 1)
		rQ := p.RingQ().AtLevel(lvl)
		r := rand.New(rand.NewPCG(seed, uint64(width)))
		poly := rQ.NewPoly()
		if width == 0 {
			randomResidues(r, rQ, poly)
		} else {
			half := new(big.Int).Rsh(oracle.Modulus(rQ.Moduli), 1)
			bits := int(width & 0x7fff)
			coeffs := make([]*big.Int, p.N())
			for j := range coeffs {
				v := new(big.Int)
				for w := 0; w < bits; w += 64 {
					v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(r.Uint64()))
				}
				v.Rsh(v, uint(-bits&63)).Mod(v, half)
				if width&0x8000 != 0 {
					v.Sub(half, v)
				}
				if r.IntN(2) == 1 {
					v.Neg(v)
				}
				coeffs[j] = v
			}
			oracle.CRTDecompose(rQ, coeffs, poly)
		}
		checkDecode(t, e, lvl, poly)
	})
}

// TestDecodeConcurrent: goroutines sharing one encoder (as fhed's tenant
// sessions do) decode at once; the tables are read-only and the scratch
// per call, so every result equals the serial one (CI runs this under
// -race).
func TestDecodeConcurrent(t *testing.T) {
	tc := newTestContext(t)
	pts := make([]*Plaintext, 4)
	want := make([][]complex128, len(pts))
	for i := range pts {
		pts[i] = tc.enc.EncodeAtLevel(randomValues(tc.params.Slots(), 1), tc.params.Scale(), i)
		want[i] = tc.enc.Decode(pts[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, pt := range pts {
				got := tc.enc.Decode(pt)
				for j := range got {
					if got[j] != want[i][j] {
						t.Errorf("level %d slot %d: concurrent %v, serial %v", i, j, got[j], want[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestEncodeHugeMagnitude: coefficients far above 2^96 encode exactly, so
// a value of 1e20 at Δ = 2^40 (coefficients near 2^106) decodes to itself.
func TestEncodeHugeMagnitude(t *testing.T) {
	p, err := NewParameters(ParametersLiteral{LogN: 10, LogQ: chainQ(60, 60, 3), LogP: []int{60}, LogScale: 40})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEncoder(p)
	vals := []complex128{1e20, -3e19, complex(0, 7e18)}
	got := e.Decode(e.Encode(vals))
	for i, v := range vals {
		if d := cmplx.Abs(got[i] - v); d > 1e20*0x1p-40 {
			t.Errorf("slot %d: got %v, want %v (|err| %.3g)", i, got[i], v, d)
		}
	}
}

// BenchmarkDecode times Decode on the benchmark workloads' shapes: level 0
// at N = 2^13 (mult_chain), level 4 at N = 2^12 (matvec_hoisted) and the
// top level at N = 2^9 (bootstrap's deep chain). oracle is the math/big
// composition on the matvec shape, the path Decode replaced.
func BenchmarkDecode(b *testing.B) {
	for _, c := range []struct {
		name  string
		chain int
		level int
	}{{"level0", 0, 0}, {"matvec", 1, 4}, {"bootstrap", 2, 16}, {"oracle", 1, 4}} {
		b.Run(c.name, func(b *testing.B) {
			p, err := NewParameters(decodeChains[c.chain].lit)
			if err != nil {
				b.Fatal(err)
			}
			e := NewEncoder(p)
			pt := e.EncodeAtLevel(randomValues(p.Slots(), 1), p.Scale(), c.level)
			decode := e.Decode
			if c.name == "oracle" {
				decode = func(pt *Plaintext) []complex128 {
					rQ := p.RingQ().AtLevel(pt.Level)
					poly := pt.Value.CopyNew()
					rQ.INTTPoly(poly)
					return oracleSlots(e, oracle.SignedCoeffs(rQ, poly), pt.Scale)
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				decode(pt)
			}
		})
	}
}

// BenchmarkEncode times Encode at the top level of the matvec_hoisted and
// bootstrap shapes; setSigned's one reduction per limb is in its loop.
func BenchmarkEncode(b *testing.B) {
	for _, c := range []int{1, 2} {
		b.Run(decodeChains[c].name, func(b *testing.B) {
			p, err := NewParameters(decodeChains[c].lit)
			if err != nil {
				b.Fatal(err)
			}
			e := NewEncoder(p)
			vals := randomValues(p.Slots(), 1)
			b.ReportAllocs()
			for b.Loop() {
				e.Encode(vals)
			}
		})
	}
}
