package mathutil

import (
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// testPrimes is a spread of NTT-friendly primes of several sizes used
// across the arithmetic tests.
var testPrimes = []uint64{
	12289,               // 14-bit, 2^12 | q-1
	40961,               // 16-bit
	786433,              // 20-bit
	1152921504589807619, // 60-bit
	1152921504606830593, // just below 2^60
}

func TestTestPrimesArePrime(t *testing.T) {
	for _, q := range testPrimes {
		if !IsPrime(q) {
			t.Errorf("test prime %d is not prime; fix the fixture", q)
		}
	}
}

func TestAddSubNegMod(t *testing.T) {
	q := uint64(786433)
	for i := 0; i < 1000; i++ {
		a := rand.Uint64N(q)
		b := rand.Uint64N(q)
		if got, want := AddMod(a, b, q), (a+b)%q; got != want {
			t.Fatalf("AddMod(%d,%d,%d) = %d, want %d", a, b, q, got, want)
		}
		if got, want := SubMod(a, b, q), (a+q-b)%q; got != want {
			t.Fatalf("SubMod(%d,%d,%d) = %d, want %d", a, b, q, got, want)
		}
		if got, want := NegMod(a, q), (q-a)%q; got != want {
			t.Fatalf("NegMod(%d,%d) = %d, want %d", a, q, got, want)
		}
	}
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
