// Package mathutil provides the 64-bit modular arithmetic primitives that
// underpin the RNS-CKKS implementation: Barrett and Shoup modular
// multiplication, Montgomery reduction of lazy 128-bit sums, modular
// exponentiation and inversion, Miller–Rabin primality testing, generation
// of NTT-friendly primes, primitive roots of unity, and bit-reversal
// permutations.
//
// The one invariant every reduction here relies on is 4q < 2^64: the NTT's
// lazy butterflies keep values in [0, 4q) and Barrett.Reduce128 sums two
// partial residues in [0, 2q). MaxModulusBits = 61 guarantees it with a bit
// to spare.
package mathutil

import (
	"fmt"
	"math/bits"
)

// MaxModulusBits is the largest bit-length of a modulus supported by the
// arithmetic in this package. Any q < 2^61 satisfies 4q < 2^64, the
// headroom the lazy reductions need.
const MaxModulusBits = 61

// AddMod returns (a + b) mod q. It requires a, b < q.
func AddMod(a, b, q uint64) uint64 {
	s := a + b
	if s >= q {
		s -= q
	}
	return s
}

// SubMod returns (a - b) mod q. It requires a, b < q. The borrow select
// compiles to a conditional move, so random residues cost no mispredicts.
func SubMod(a, b, q uint64) uint64 {
	r := a - b
	if a < b {
		r += q
	}
	return r
}

// NegMod returns (-a) mod q. It requires a < q.
func NegMod(a, q uint64) uint64 {
	if a == 0 {
		return 0
	}
	return q - a
}

// MulMod returns (a * b) mod q using a 128-bit intermediate product.
// It makes no assumptions about a and b beyond both being < 2^64.
func MulMod(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%q, lo, q)
	return rem
}

// Barrett holds the precomputed constants for Barrett reduction modulo a
// fixed q. The zero value is not usable; construct with NewBarrett.
type Barrett struct {
	Q  uint64 // the modulus
	hi uint64 // μ = floor(2^64 / q), the one-word Barrett constant
	lo uint64 // floor(w·2^64 / q) for w = 2^64 mod q: the Shoup companion of w
}

// NewBarrett precomputes the reduction constants for modulus q ≥ 2.
// Together hi and lo are floor(2^128/q). It panics if q < 2 or q exceeds
// MaxModulusBits bits, which indicates a programming error rather than a
// runtime condition.
func NewBarrett(q uint64) Barrett {
	if q < 2 || bits.Len64(q) > MaxModulusBits {
		panic(fmt.Sprintf("mathutil: modulus %d out of supported range", q))
	}
	hi, w := bits.Div64(1, 0, q) // floor(2^64 / q), remainder 2^64 mod q
	lo, _ := bits.Div64(w, 0, q)
	return Barrett{Q: q, hi: hi, lo: lo}
}

// Reduce returns x mod q for any 64-bit x: one-word Barrett leaves
// x − floor(x·μ/2^64)·q in [0, 2q), and one conditional subtract finishes.
func (b Barrett) Reduce(x uint64) uint64 {
	qhat, _ := bits.Mul64(x, b.hi)
	r := x - qhat*b.Q
	if r >= b.Q {
		r -= b.Q
	}
	return r
}

// MulMod returns (x*y) mod q via the precomputed Barrett constant.
// x and y may be any values < 2^64.
func (b Barrett) MulMod(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	return b.Reduce128(hi, lo)
}

// Reduce128 reduces the 128-bit value hi·2^64 + lo modulo q, exactly, for
// every input. It folds the two words separately:
//
//	t = hi·w mod q by Shoup (hi·2^64 ≡ hi·w),  t ∈ [0, 2q)
//	u = lo mod q by one-word Barrett,          u ∈ [0, 2q)
//
// so t + u < 4q < 2^64 and two conditional subtracts land it in [0, q).
// Since w = 2^64 − μ·q, hi·w ≡ −hi·μ·q (mod 2^64), so t + u is one
// multiply by q away from lo; the subtracts compile to conditional moves,
// so no branch depends on the data.
func (b Barrett) Reduce128(hi, lo uint64) uint64 {
	qt, _ := bits.Mul64(hi, b.lo)
	qu, _ := bits.Mul64(lo, b.hi)
	r := lo - (hi*b.hi+qt+qu)*b.Q // = t + u, exact mod 2^64 since t+u < 2^64
	if q2 := b.Q << 1; r >= q2 {
		r -= q2
	}
	if r >= b.Q {
		r -= b.Q
	}
	return r
}

// MulAdd128 returns (hi, lo) + x·w for the 128-bit hi·2^64 + lo, the
// multiply-accumulate step of the lazy product sums; the caller keeps the
// sum below 2^128.
func MulAdd128(hi, lo, x, w uint64) (uint64, uint64) {
	ph, pl := bits.Mul64(x, w)
	lo, carry := bits.Add64(lo, pl, 0)
	return hi + ph + carry, lo
}

// MontReduce returns T·2^-64 mod q for the 128-bit T = hi·2^64 + lo, the
// Montgomery reduction (REDC), given qNeg = −q⁻¹ mod 2^64 (MontQNeg). It
// requires an odd q and T < q·2^64 (so hi < q), which a sum of at most
// MontMaxTerms products plus one residue meets.
// With m = lo·qNeg, T + m·q is divisible by 2^64 and below 2q·2^64; its
// low word is zero, so it carries into the high word exactly when lo ≠ 0,
// and one conditional subtract lands the quotient in [0, q). One low and
// one widening multiply, against Reduce128's two of each.
func MontReduce(hi, lo, q, qNeg uint64) uint64 {
	mh, _ := bits.Mul64(lo*qNeg, q)
	r := hi + mh + (lo|-lo)>>63
	if r >= q {
		r -= q
	}
	return r
}

// MontQNeg returns −q⁻¹ mod 2^64 for an odd q, MontReduce's constant.
// Newton's iteration x ← x·(2 − q·x) doubles the correct low bits of the
// inverse, and x = q is already right mod 8 for any odd q.
func MontQNeg(q uint64) uint64 {
	if q&1 == 0 {
		panic(fmt.Sprintf("mathutil: Montgomery modulus %d is even", q))
	}
	x := q
	for i := 0; i < 5; i++ { // 3 → 6 → 12 → 24 → 48 → 96 bits
		x *= 2 - q*x
	}
	return -x
}

// MontR returns R = 2^64 mod q: multiplying a residue by R puts it in the
// Montgomery form MontReduce takes back out.
func MontR(q uint64) uint64 {
	_, r := bits.Div64(1, 0, q)
	return r
}

// MontMaxTerms returns how many products x·w with x < m and w < q a sum
// may hold, on top of one residue below q, and still meet MontReduce's
// precondition T < q·2^64: k = ⌊(2^64−1)/m⌋ − 1 gives k·(m−1) + 1 < 2^64,
// so T ≤ (q−1)·(k·(m−1) + 1) < q·2^64.
// That is 7 at m < 2^61 and grows as the moduli shrink; a longer sum
// reduces its accumulator (Barrett.Reduce128) every k products, which
// preserves the residue and so whatever factor of R the sum carries.
func MontMaxTerms(m uint64) int {
	return int(^uint64(0)/m) - 1
}

// ShoupPrecomp returns the Shoup precomputation floor(w * 2^64 / q) for a
// fixed multiplicand w < q. Pair it with MulModShoup for a fast modular
// multiplication by the constant w.
func ShoupPrecomp(w, q uint64) uint64 {
	quo, _ := bits.Div64(w, 0, q)
	return quo
}

// MulModShoup returns (x * w) mod q where wShoup = ShoupPrecomp(w, q).
// It requires x < q (w is already < q by construction). This is the
// workhorse multiplication inside the NTT where one operand (the twiddle
// factor) is fixed.
func MulModShoup(x, w, wShoup, q uint64) uint64 {
	qhat, _ := bits.Mul64(x, wShoup)
	r := x*w - qhat*q
	if r >= q {
		r -= q
	}
	return r
}

// PowMod returns a^e mod q using square-and-multiply.
func PowMod(a, e, q uint64) uint64 {
	br := NewBarrett(q)
	result := uint64(1)
	base := br.Reduce(a)
	for e > 0 {
		if e&1 == 1 {
			result = br.MulMod(result, base)
		}
		base = br.MulMod(base, base)
		e >>= 1
	}
	return result
}

// InvMod returns the multiplicative inverse of a modulo prime q.
// It panics if a ≡ 0 (mod q), which has no inverse.
func InvMod(a, q uint64) uint64 {
	if a%q == 0 {
		panic("mathutil: zero has no modular inverse")
	}
	// Fermat: a^(q-2) mod q for prime q.
	return PowMod(a, q-2, q)
}

// BitReverse returns the bit-reversal of x in logN bits.
func BitReverse(x uint64, logN int) uint64 {
	return bits.Reverse64(x) >> (64 - logN)
}

// BitReversePermute permutes the slice in place by the bit-reversal of the
// indices. len(v) must be a power of two.
func BitReversePermute(v []uint64) {
	n := len(v)
	if n&(n-1) != 0 {
		panic("mathutil: BitReversePermute requires power-of-two length")
	}
	logN := bits.Len(uint(n)) - 1
	for i := 0; i < n; i++ {
		j := int(BitReverse(uint64(i), logN))
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}

// ReduceFloat returns the residue of the (possibly huge, possibly negative)
// real integer v modulo q. v is split into 32-bit chunks so magnitudes far
// beyond 2^64 — e.g. doubled CKKS scales Δ² ≈ 2^90 — reduce exactly, up to
// the 53-bit float64 mantissa of v itself.
func ReduceFloat(v float64, q uint64) uint64 {
	neg := v < 0
	if neg {
		v = -v
	}
	br := NewBarrett(q)
	base := br.Reduce(1 << 32)
	var res uint64
	// Horner over base-2^32 chunks, most significant first.
	var chunks []uint64
	for v >= 1 {
		chunks = append(chunks, uint64(mod232(v)))
		v = floorDiv232(v)
	}
	for i := len(chunks) - 1; i >= 0; i-- {
		res = br.MulMod(res, base)
		res = AddMod(res, br.Reduce(chunks[i]), q)
	}
	if neg {
		res = NegMod(res, q)
	}
	return res
}

func mod232(v float64) float64 {
	return v - floorDiv232(v)*4294967296.0
}

func floorDiv232(v float64) float64 {
	f := v / 4294967296.0
	return float64(uint64(f))
}
