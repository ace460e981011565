package mathutil

import (
	"errors"
	"math"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/fherr"
)

// testPrimes is a spread of NTT-friendly primes of several sizes used
// across the arithmetic tests.
var testPrimes = []uint64{
	12289,               // 14-bit, 2^12 | q-1
	40961,               // 16-bit
	786433,              // 20-bit
	1152921504589807619, // 60-bit
	1152921504606830593, // just below 2^60
	2305843009213554689, // 61-bit (MaxModulusBits), 2^13 | q-1
}

// q61 is the largest test prime, at the MaxModulusBits boundary.
var q61 = testPrimes[len(testPrimes)-1]

func TestTestPrimesArePrime(t *testing.T) {
	for _, q := range testPrimes {
		if !IsPrime(q) {
			t.Errorf("test prime %d is not prime; fix the fixture", q)
		}
	}
}

// TestAddSubNegMod checks the add/sub/neg primitives on every test prime,
// including the 61-bit one where a+b and a+q−b come closest to 2^64, over
// the operand boundaries {0, 1, q−2, q−1} and random residues.
func TestAddSubNegMod(t *testing.T) {
	for _, q := range testPrimes {
		ops := []uint64{0, 1, q - 2, q - 1}
		for i := 0; i < 40; i++ {
			ops = append(ops, rand.Uint64N(q))
		}
		for _, a := range ops {
			for _, b := range ops {
				if got, want := AddMod(a, b, q), bigMod(q, a, b, 1); got != want {
					t.Fatalf("AddMod(%d,%d,%d) = %d, want %d", a, b, q, got, want)
				}
				if got, want := SubMod(a, b, q), bigMod(q, a, b, -1); got != want {
					t.Fatalf("SubMod(%d,%d,%d) = %d, want %d", a, b, q, got, want)
				}
			}
			if got, want := NegMod(a, q), (q-a)%q; got != want {
				t.Fatalf("NegMod(%d,%d) = %d, want %d", a, q, got, want)
			}
		}
	}
}

// bigMod returns (a + sign·b) mod q computed in math/big.
func bigMod(q, a, b uint64, sign int64) uint64 {
	x := new(big.Int).Mul(new(big.Int).SetUint64(b), big.NewInt(sign))
	x.Add(x, new(big.Int).SetUint64(a))
	return x.Mod(x, new(big.Int).SetUint64(q)).Uint64()
}

// reduce128Moduli returns moduli of every bit length from 2 to
// MaxModulusBits: each length's smallest value (a power of two), its
// largest (2^b − 1), and a random one in between, plus every test prime.
func reduce128Moduli(r *rand.Rand) []uint64 {
	qs := append([]uint64(nil), testPrimes...)
	for b := 2; b <= MaxModulusBits; b++ {
		lo := uint64(1) << (b - 1)
		qs = append(qs, lo, 2*lo-1, lo+r.Uint64N(lo))
	}
	return qs
}

// TestReduce128AgainstBig is a math/big differential of Barrett.Reduce128
// (and of Reduce on the hi = 0 inputs) over the whole 128-bit input
// domain: hi above q, both words all-ones, hi = 0, and random words.
func TestReduce128AgainstBig(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	const ones = ^uint64(0)
	for _, q := range reduce128Moduli(r) {
		br := NewBarrett(q)
		bq := new(big.Int).SetUint64(q)
		inputs := [][2]uint64{
			{0, 0}, {0, ones}, {ones, ones}, {ones, 0},
			{q - 1, ones}, {q, 0}, {q, ones}, {0, q - 1}, {0, q}, {0, 2*q - 1},
		}
		for i := 0; i < 300; i++ {
			inputs = append(inputs,
				[2]uint64{r.Uint64(), r.Uint64()},            // random
				[2]uint64{q + r.Uint64N(ones-q), r.Uint64()}, // hi ≥ q
				[2]uint64{0, r.Uint64()},                     // hi = 0
			)
		}
		for _, in := range inputs {
			hi, lo := in[0], in[1]
			x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
			x.Or(x, new(big.Int).SetUint64(lo))
			want := x.Mod(x, bq).Uint64()
			if got := br.Reduce128(hi, lo); got != want {
				t.Fatalf("q=%d: Reduce128(%#x, %#x) = %d, want %d", q, hi, lo, got, want)
			}
			if hi == 0 {
				if got := br.Reduce(lo); got != want {
					t.Fatalf("q=%d: Reduce(%#x) = %d, want %d", q, lo, got, want)
				}
			}
		}
	}
}

// FuzzReduce128 checks Reduce128 against the hardware 128/64 division for
// any input words and any modulus in [2, 2^MaxModulusBits).
func FuzzReduce128(f *testing.F) {
	const ones = ^uint64(0)
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(ones, ones, ones)
	f.Add(q61, ones, q61-2)
	f.Add(uint64(1)<<63, uint64(12345), uint64(12289))
	f.Fuzz(func(t *testing.T, hi, lo, qSeed uint64) {
		q := 2 + qSeed%(1<<MaxModulusBits-2)
		_, want := bits.Div64(hi%q, lo, q)
		if got := NewBarrett(q).Reduce128(hi, lo); got != want {
			t.Fatalf("q=%d: Reduce128(%#x, %#x) = %d, want %d", q, hi, lo, got, want)
		}
	})
}

func TestMulModAgainstBig(t *testing.T) {
	for _, q := range testPrimes {
		bq := new(big.Int).SetUint64(q)
		for i := 0; i < 500; i++ {
			a := rand.Uint64()
			b := rand.Uint64()
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, bq)
			if got := MulMod(a, b, q); got != want.Uint64() {
				t.Fatalf("MulMod(%d,%d,%d) = %d, want %d", a, b, q, got, want.Uint64())
			}
		}
	}
}

func TestBarrettMatchesMulMod(t *testing.T) {
	for _, q := range testPrimes {
		br := NewBarrett(q)
		for i := 0; i < 1000; i++ {
			a := rand.Uint64()
			b := rand.Uint64()
			if got, want := br.MulMod(a, b), MulMod(a, b, q); got != want {
				t.Fatalf("q=%d: Barrett.MulMod(%d,%d) = %d, want %d", q, a, b, got, want)
			}
		}
	}
}

func TestBarrettReduce(t *testing.T) {
	for _, q := range testPrimes {
		br := NewBarrett(q)
		inputs := []uint64{0, 1, q - 1, q, q + 1, 2*q - 1, 2 * q, ^uint64(0)}
		for i := 0; i < 200; i++ {
			inputs = append(inputs, rand.Uint64())
		}
		for _, x := range inputs {
			if got, want := br.Reduce(x), x%q; got != want {
				t.Fatalf("q=%d: Reduce(%d) = %d, want %d", q, x, got, want)
			}
		}
	}
}

// montPrimes returns an NTT prime of every bit length from 28 to
// MaxModulusBits, the range the CKKS chains draw their moduli from.
func montPrimes(t testing.TB) []uint64 {
	t.Helper()
	var qs []uint64
	for b := 28; b <= MaxModulusBits; b++ {
		ps, err := GenerateNTTPrimes(b, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, ps...)
	}
	return qs
}

// TestMontReduceAgainstBig is a math/big differential of MontReduce over
// its whole input domain T < q·2^64: the top edge T = q·2^64 − 1, lo = 0
// (no carry out of the low word), hi = 0, hi = q − 1, and random T. It
// also checks MontQNeg, MontR (MontReduce of R·x is x) and that
// MontMaxTerms products of worst-case operands plus a seed stay below q·2^64.
func TestMontReduceAgainstBig(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	const ones = ^uint64(0)
	for _, q := range montPrimes(t) {
		qNeg := MontQNeg(q)
		if q*qNeg != ones {
			t.Fatalf("q=%d: q·MontQNeg(q) = %#x, want −1 mod 2^64", q, q*qNeg)
		}
		bq := new(big.Int).SetUint64(q)
		rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 64), bq)
		inputs := [][2]uint64{
			{0, 0}, {0, 1}, {0, ones}, {q - 1, ones}, {q - 1, 0}, {1, 0}, {q - 1, 1},
		}
		for i := 0; i < 300; i++ {
			inputs = append(inputs,
				[2]uint64{r.Uint64N(q), r.Uint64()}, // random T < q·2^64
				[2]uint64{r.Uint64N(q), 0},          // lo = 0
				[2]uint64{0, r.Uint64()},            // hi = 0
			)
		}
		for _, in := range inputs {
			hi, lo := in[0], in[1]
			x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
			x.Or(x, new(big.Int).SetUint64(lo))
			x.Mul(x, rInv)
			want := x.Mod(x, bq).Uint64()
			if got := MontReduce(hi, lo, q, qNeg); got != want {
				t.Fatalf("q=%d: MontReduce(%#x, %#x) = %d, want %d", q, hi, lo, got, want)
			}
		}
		rq := MontR(q)
		if want := new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 64), bq).Uint64(); rq != want {
			t.Fatalf("q=%d: MontR = %d, want %d", q, rq, want)
		}
		for _, v := range []uint64{0, 1, q - 1, r.Uint64N(q)} {
			hi, lo := bits.Mul64(v, rq)
			if got := MontReduce(hi, lo, q, qNeg); got != v {
				t.Fatalf("q=%d: MontReduce(%d·R) = %d, want %d", q, v, got, v)
			}
		}
		k := MontMaxTerms(q)
		worst := new(big.Int).Mul(new(big.Int).SetUint64(q-1), new(big.Int).SetUint64(q-1))
		worst.Mul(worst, big.NewInt(int64(k)))
		worst.Add(worst, new(big.Int).SetUint64(q-1))
		if limit := new(big.Int).Lsh(bq, 64); worst.Cmp(limit) >= 0 {
			t.Fatalf("q=%d: %d worst products plus a seed reach q·2^64", q, k)
		}
		if bits.Len64(q) == MaxModulusBits && k < 7 {
			t.Fatalf("q=%d: MontMaxTerms = %d, want ≥ 7 at 61 bits", q, k)
		}
	}
}

// FuzzMontReduce checks MontReduce against the hardware 128/64 division
// for any T < q·2^64 and any odd modulus in [3, 2^MaxModulusBits):
// MontReduce(T)·R ≡ T (mod q).
func FuzzMontReduce(f *testing.F) {
	const ones = ^uint64(0)
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(ones, ones, ones)
	f.Add(q61-1, ones, q61-2)
	f.Add(uint64(12288), uint64(0), uint64(12287))
	f.Fuzz(func(t *testing.T, hi, lo, qSeed uint64) {
		q := 3 + qSeed%(1<<MaxModulusBits-3) | 1
		hi %= q
		got := MontReduce(hi, lo, q, MontQNeg(q))
		if got >= q {
			t.Fatalf("q=%d: MontReduce(%#x, %#x) = %d, not below q", q, hi, lo, got)
		}
		_, want := bits.Div64(hi, lo, q)
		ph, pl := bits.Mul64(got, MontR(q))
		if _, back := bits.Div64(ph%q, pl, q); back != want {
			t.Fatalf("q=%d: MontReduce(%#x, %#x) = %d, and %d·R ≢ T", q, hi, lo, got, got)
		}
	})
}

// benchOperands is the size of the operand tables the reduction benchmarks
// cycle through: random draws, too many for a branch predictor to learn
// (on a Xeon it still memorizes a 2^12-entry cycle), so a data-dependent
// branch pays its real mispredict rate.
const benchOperands = 1 << 14

var benchSink uint64

func BenchmarkReduce128(b *testing.B) {
	r := rand.New(rand.NewPCG(3, 4))
	br := NewBarrett(q61)
	hi, lo := make([]uint64, benchOperands), make([]uint64, benchOperands)
	for i := range hi {
		// A 122-bit lazy sum, the shape Extend and GatherMulAccumulate close.
		hi[i], lo[i] = bits.Mul64(r.Uint64N(q61), r.Uint64N(q61))
	}
	var s uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & (benchOperands - 1)
		s += br.Reduce128(hi[k], lo[k])
	}
	benchSink = s
}

func BenchmarkMontReduce(b *testing.B) {
	r := rand.New(rand.NewPCG(3, 4))
	qNeg := MontQNeg(q61)
	hi, lo := make([]uint64, benchOperands), make([]uint64, benchOperands)
	for i := range hi {
		hi[i], lo[i] = bits.Mul64(r.Uint64N(q61), r.Uint64N(q61))
	}
	var s uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & (benchOperands - 1)
		s += MontReduce(hi[k], lo[k], q61, qNeg)
	}
	benchSink = s
}

func BenchmarkSubMod(b *testing.B) {
	r := rand.New(rand.NewPCG(5, 6))
	x, y := make([]uint64, benchOperands), make([]uint64, benchOperands)
	for i := range x {
		x[i], y[i] = r.Uint64N(q61), r.Uint64N(q61)
	}
	var s uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & (benchOperands - 1)
		s += SubMod(x[k], y[k], q61)
	}
	benchSink = s
}

func TestShoupMul(t *testing.T) {
	for _, q := range testPrimes {
		for i := 0; i < 500; i++ {
			w := rand.Uint64N(q)
			x := rand.Uint64N(q)
			ws := ShoupPrecomp(w, q)
			if got, want := MulModShoup(x, w, ws, q), MulMod(x, w, q); got != want {
				t.Fatalf("q=%d: MulModShoup(%d,%d) = %d, want %d", q, x, w, got, want)
			}
		}
	}
}

func TestPowMod(t *testing.T) {
	q := testPrimes[3]
	bq := new(big.Int).SetUint64(q)
	for i := 0; i < 100; i++ {
		a := rand.Uint64N(q)
		e := rand.Uint64N(1 << 40)
		want := new(big.Int).Exp(new(big.Int).SetUint64(a), new(big.Int).SetUint64(e), bq)
		if got := PowMod(a, e, q); got != want.Uint64() {
			t.Fatalf("PowMod(%d,%d,%d) = %d, want %d", a, e, q, got, want.Uint64())
		}
	}
}

func TestInvMod(t *testing.T) {
	for _, q := range testPrimes {
		for i := 0; i < 100; i++ {
			a := 1 + rand.Uint64N(q-1)
			inv := InvMod(a, q)
			if MulMod(a, inv, q) != 1 {
				t.Fatalf("q=%d: InvMod(%d) = %d is not an inverse", q, a, inv)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("InvMod(0) should panic")
		}
	}()
	InvMod(0, testPrimes[0])
}

func TestMulModProperties(t *testing.T) {
	q := testPrimes[4]
	br := NewBarrett(q)
	commutes := func(a, b uint64) bool { return br.MulMod(a, b) == br.MulMod(b, a) }
	if err := quick.Check(commutes, nil); err != nil {
		t.Error(err)
	}
	distributes := func(a, b, c uint64) bool {
		a, b, c = a%q, b%q, c%q
		left := br.MulMod(a, AddMod(b, c, q))
		right := AddMod(br.MulMod(a, b), br.MulMod(a, c), q)
		return left == right
	}
	if err := quick.Check(distributes, nil); err != nil {
		t.Error(err)
	}
	associates := func(a, b, c uint64) bool {
		return br.MulMod(br.MulMod(a%q, b%q), c%q) == br.MulMod(a%q, br.MulMod(b%q, c%q))
	}
	if err := quick.Check(associates, nil); err != nil {
		t.Error(err)
	}
}

func TestBitReverse(t *testing.T) {
	if got := BitReverse(0b0011, 4); got != 0b1100 {
		t.Errorf("BitReverse(0b0011, 4) = %b, want 1100", got)
	}
	if got := BitReverse(1, 10); got != 1<<9 {
		t.Errorf("BitReverse(1, 10) = %d, want %d", got, 1<<9)
	}
	// Involution property.
	involution := func(x uint64) bool {
		x &= 0xFFFF
		return BitReverse(BitReverse(x, 16), 16) == x
	}
	if err := quick.Check(involution, nil); err != nil {
		t.Error(err)
	}
}

func TestBitReversePermute(t *testing.T) {
	v := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	BitReversePermute(v)
	want := []uint64{0, 4, 2, 6, 1, 5, 3, 7}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("BitReversePermute = %v, want %v", v, want)
		}
	}
	// Applying twice restores the original.
	BitReversePermute(v)
	for i := range v {
		if v[i] != uint64(i) {
			t.Fatalf("double permute not identity: %v", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BitReversePermute on non-power-of-two should panic")
		}
	}()
	BitReversePermute(make([]uint64, 3))
}

// TestReduceFloatAgainstBig checks ReduceFloat against math/big's
// truncation of v reduced mod q, for v = ±m·2^e at every exponent
// e = 0…1023 (past 2^96, where a split into 32-bit chunks overflows) with
// the smallest, the largest and a random mantissa, and at fractions.
func TestReduceFloatAgainstBig(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 1023))
	vals := []float64{0, 0.5, 1.5, 4294967296.75, math.MaxFloat64}
	for e := 0; e <= 1023; e++ {
		for _, m := range []float64{1, 2 - 0x1p-52, 1 + r.Float64()} {
			vals = append(vals, math.Ldexp(m, e))
		}
	}
	for _, q := range testPrimes {
		bq := new(big.Int).SetUint64(q)
		for _, v := range vals {
			for _, sv := range []float64{v, -v} {
				want, _ := big.NewFloat(sv).Int(nil) // truncates toward zero
				want.Mod(want, bq)
				if got := ReduceFloat(sv, q); got != want.Uint64() {
					t.Fatalf("ReduceFloat(%g, %d) = %d, want %d", sv, q, got, want)
				}
			}
		}
	}
}

// TestReduceFloatNonFinite: NaN and ±Inf have no residue; ReduceFloat
// panics with a usage error instead of returning one.
func TestReduceFloatNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, fherr.ErrUsage) {
					t.Errorf("ReduceFloat(%v): recovered %v, want an fherr.ErrUsage error", v, err)
				}
			}()
			ReduceFloat(v, q61)
		}()
	}
}
