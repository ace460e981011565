package ckks

import (
	"math"
	"math/bits"

	"repro/internal/mathutil"
)

// crtTable composes the centered integer of one coefficient at one level
// from its residues, in fixed-width words. With Q = q_0·…·q_ℓ held in W
// little-endian words and q̂_i = Q/q_i, the CRT gives
//
//	x ≡ Σ y_i·q̂_i  (mod Q),  y_i = [x_i·q̂_i⁻¹]_{q_i},
//
// and since Σ y_i·q̂_i = Q·Σ y_i/q_i, subtracting k = round(Σ y_i/q_i)
// copies of Q leaves the centered x in (−Q/2, Q/2]; Q is odd, so no sum
// sits at a half. k is estimated in float64. The estimate is off, by one,
// only when x lies within a float64 rounding error of ±Q/2, and one rare
// compare-and-correct undoes it. The table is read-only after newCRTTable,
// so goroutines sharing an encoder may decode concurrently.
type crtTable struct {
	q        []uint64  // q_0 … q_ℓ
	inv      []uint64  // q̂_i⁻¹ mod q_i
	invShoup []uint64  // Shoup companions of inv
	invQ     []float64 // 1/q_i, for the estimate of k
	qHat     []uint64  // word k of q̂_i at k·(ℓ+1) + i: one column per word
	bigQ     []uint64  // Q, W words
	halfQ    []uint64  // ⌊Q/2⌋, W words
}

// newCRTTable builds the table of the chain q.
func newCRTTable(q []uint64) *crtTable {
	// Q = Π q_i, one word per modulus at most.
	prod := []uint64{1}
	for _, qi := range q {
		prod = mulWord(prod, qi)
	}
	w := len(prod)
	t := &crtTable{
		q:        q,
		inv:      make([]uint64, len(q)),
		invShoup: make([]uint64, len(q)),
		invQ:     make([]float64, len(q)),
		qHat:     make([]uint64, w*len(q)),
		bigQ:     prod,
		halfQ:    make([]uint64, w),
	}
	for k := 0; k < w; k++ {
		t.halfQ[k] = prod[k] >> 1
		if k+1 < w {
			t.halfQ[k] |= prod[k+1] << 63
		}
	}
	for i, qi := range q {
		hat := []uint64{1}
		hatMod := uint64(1)
		br := mathutil.NewBarrett(qi)
		for j, qj := range q {
			if j != i {
				hat = mulWord(hat, qj)
				hatMod = br.MulMod(hatMod, br.Reduce(qj))
			}
		}
		for k, hk := range hat {
			t.qHat[k*len(q)+i] = hk
		}
		t.inv[i] = mathutil.InvMod(hatMod, qi)
		t.invShoup[i] = mathutil.ShoupPrecomp(t.inv[i], qi)
		t.invQ[i] = 1 / float64(qi)
	}
	return t
}

// mulWord returns a·m for a little-endian multiword a, growing it by one
// word when the product carries out.
func mulWord(a []uint64, m uint64) []uint64 {
	out := make([]uint64, len(a), len(a)+1)
	var carry uint64
	for k, ak := range a {
		hi, lo := bits.Mul64(ak, m)
		var c uint64
		out[k], c = bits.Add64(lo, carry, 0)
		carry = hi + c
	}
	if carry != 0 {
		out = append(out, carry)
	}
	return out
}

// words returns the scratch length signed needs: ℓ+1 words for the y_i
// and W+1 for the sum.
func (t *crtTable) words() int { return len(t.q) + len(t.bigQ) + 1 }

// signed returns coefficient j of the coefficient-form limbs as the nearest
// float64 to its centered value in (−Q/2, Q/2], ties to even — the value
// big.Float.SetInt(v).Float64() gives. scratch holds t.words() words.
func (t *crtTable) signed(limbs [][]uint64, j int, scratch []uint64) float64 {
	l, w := len(t.q), len(t.bigQ)
	if l == 1 {
		// One limb: q̂_0 = 1 and the canonical residue is the value.
		q, x := t.q[0], limbs[0][j]
		if x > q>>1 {
			return -float64(q - x)
		}
		return float64(x)
	}
	ys, acc := scratch[:l], scratch[l:l+w+1]
	var est float64
	for i, qi := range t.q {
		y := mathutil.MulModShoup(limbs[i][j], t.inv[i], t.invShoup[i], qi)
		est += float64(int64(y)) * t.invQ[i] // y < 2^61: a signed conversion is exact and cheaper
		ys[i] = y
	}
	// Σ y_i·q̂_i one result word at a time: the low product words of column
	// k and the high words bound for column k+1 each sum in two words, so
	// no carry ripples through memory.
	var r0, r1 uint64
	for k := 0; k < w; k++ {
		var n0, n1, c uint64
		for i, h := range t.qHat[k*l : (k+1)*l] {
			hi, lo := bits.Mul64(ys[i], h)
			r0, c = bits.Add64(r0, lo, 0)
			r1 += c
			n0, c = bits.Add64(n0, hi, 0)
			n1 += c
		}
		acc[k] = r0
		r0, c = bits.Add64(n0, r1, 0)
		r1 = n1 + c
	}
	acc[w] = r0

	// v = acc − k·Q in W+1 words of two's complement, |v| < 3Q/2.
	k := uint64(est + 0.5)
	var mc, borrow uint64
	for i, qw := range t.bigQ {
		hi, lo := bits.Mul64(k, qw)
		var c uint64
		lo, c = bits.Add64(lo, mc, 0)
		mc = hi + c
		acc[i], borrow = bits.Sub64(acc[i], lo, borrow)
	}
	acc[w], _ = bits.Sub64(acc[w], mc, borrow)

	// |v|, without a branch on the sign.
	neg := acc[w] >> 63
	mask, carry := -neg, neg
	for i := range acc {
		acc[i], carry = bits.Add64(acc[i]^mask, 0, carry)
	}
	mag := acc[:w]
	if acc[w] != 0 || cmpWords(mag, t.halfQ) > 0 {
		// k was off by one: the centered value is ∓(Q − |v|).
		rsubWords(mag, t.bigQ)
		neg ^= 1
	}
	return math.Float64frombits(math.Float64bits(wordsToFloat(mag)) | neg<<63)
}

// wordsToFloat rounds the little-endian magnitude a to the nearest float64,
// ties to even. The top 64 significant bits are converted with every bit
// below them ORed into bit 0: the round bit of a 53-bit mantissa taken from
// 64 aligned bits is bit 10, so the OR cannot move it, and it makes a
// nonzero tail below the window break a tie upwards exactly as the full
// value would. uint64 → float64 rounds to nearest even and Ldexp by a whole
// power of two is exact.
func wordsToFloat(a []uint64) float64 {
	top := len(a) - 1
	for top > 0 && a[top] == 0 {
		top--
	}
	if top == 0 {
		return float64(a[0])
	}
	// Go defines a shift by 64 as 0, so s = 0 needs no branch.
	s := uint(bits.LeadingZeros64(a[top]))
	hi := a[top]<<s | a[top-1]>>(64-s)
	sticky := a[top-1] << s
	for _, x := range a[:top-1] {
		sticky |= x
	}
	if sticky != 0 {
		hi |= 1
	}
	return math.Ldexp(float64(hi), 64*(top-1)+int(64-s))
}

func cmpWords(a, b []uint64) int {
	for k := len(a) - 1; k >= 0; k-- {
		if a[k] != b[k] {
			if a[k] > b[k] {
				return 1
			}
			return -1
		}
	}
	return 0
}

// rsubWords sets a = b − a.
func rsubWords(a, b []uint64) {
	var c uint64
	for k := range a {
		a[k], c = bits.Sub64(b[k], a[k], c)
	}
}
