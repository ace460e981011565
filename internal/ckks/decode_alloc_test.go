//go:build !race

package ckks

import "testing"

// Excluded under the race detector, whose sync.Pool drops items at random
// and so turns Decode's pooled copy into an allocation.

// TestDecodeAllocs pins Decode's allocations at a constant count: the
// composition works in one scratch slice of ℓ+W+2 words and the copy of the
// plaintext comes from the ring's pool, so neither N nor the level adds
// any.
func TestDecodeAllocs(t *testing.T) {
	const want = 3 // the level view, the scratch words and the output slots
	for _, logN := range []int{10, 12} {
		p, err := NewParameters(ParametersLiteral{LogN: logN, LogQ: chainQ(50, 40, 5), LogP: []int{50, 50}, LogScale: 40})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEncoder(p)
		for _, level := range []int{0, p.MaxLevel()} {
			pt := e.EncodeAtLevel(randomValues(p.Slots(), 1), p.Scale(), level)
			if got := testing.AllocsPerRun(20, func() { e.Decode(pt) }); got > want {
				t.Errorf("N=2^%d level %d: Decode allocs = %v, want <= %d", logN, level, got, want)
			}
		}
	}
}
