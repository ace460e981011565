package oracle

import (
	"math/big"
	"testing"

	"repro/internal/mathutil"
	"repro/internal/prng"
	"repro/internal/ring"
)

func TestBigCoeffsRoundTrip(t *testing.T) {
	var seed [prng.SeedSize]byte
	copy(seed[:], "ring package deterministic tests")
	src := prng.NewSource(seed)
	primes, err := mathutil.GenerateNTTPrimes(45, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ring.NewRing(32, primes)
	if err != nil {
		t.Fatal(err)
	}
	bigQ := Modulus(r.Moduli)
	coeffs := make([]*big.Int, r.N)
	for i := range coeffs {
		v := new(big.Int).SetUint64(src.Uint64())
		v.Mul(v, new(big.Int).SetUint64(src.Uint64()))
		v.Mod(v, bigQ)
		coeffs[i] = v
	}
	p := r.NewPoly()
	CRTDecompose(r, coeffs, p)
	back := CRTCompose(r, p)
	for i := range coeffs {
		if back[i].Cmp(coeffs[i]) != 0 {
			t.Fatalf("coefficient %d: got %v, want %v", i, back[i], coeffs[i])
		}
	}
}
