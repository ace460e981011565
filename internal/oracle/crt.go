// Package oracle holds arbitrary-precision reference computations that the
// word-arithmetic kernels are tested against. It is built on math/big alone,
// so a misunderstanding shared by the ring, rns and ckks code cannot also
// hide here, and only tests import it: nothing in it runs per op.
package oracle

import (
	"math/big"

	"repro/internal/ring"
)

// Modulus returns the product of the moduli.
func Modulus(moduli []uint64) *big.Int {
	q := big.NewInt(1)
	for _, m := range moduli {
		q.Mul(q, new(big.Int).SetUint64(m))
	}
	return q
}

// CRTCompose reconstructs every coefficient of p (coefficient form) as an
// integer in [0, Q), Q the product of r's moduli, via the CRT.
func CRTCompose(r *ring.Ring, p *ring.Poly) []*big.Int {
	if p.IsNTT {
		panic("oracle: CRTCompose input domain (got=NTT, want=coefficient form)")
	}
	bigQ := Modulus(r.Moduli)
	// CRT basis: e_i = (Q/q_i) * ((Q/q_i)^-1 mod q_i)
	basis := make([]*big.Int, len(r.Moduli))
	for i, q := range r.Moduli {
		qi := new(big.Int).SetUint64(q)
		Qi := new(big.Int).Div(bigQ, qi)
		inv := new(big.Int).ModInverse(Qi, qi)
		basis[i] = new(big.Int).Mul(Qi, inv)
	}
	out := make([]*big.Int, r.N)
	for j := 0; j < r.N; j++ {
		acc := new(big.Int)
		for i := range r.Moduli {
			term := new(big.Int).Mul(basis[i], new(big.Int).SetUint64(p.Coeffs[i][j]))
			acc.Add(acc, term)
		}
		acc.Mod(acc, bigQ)
		out[j] = acc
	}
	return out
}

// CRTDecompose sets p (coefficient form) from arbitrary-precision integers,
// reducing each one modulo every ring modulus. Negative values are allowed;
// coefficients past len(coeffs) are zero.
func CRTDecompose(r *ring.Ring, coeffs []*big.Int, p *ring.Poly) {
	if len(coeffs) > r.N {
		panic("oracle: too many coefficients")
	}
	p.Zero()
	tmp := new(big.Int)
	for i, q := range r.Moduli {
		qi := new(big.Int).SetUint64(q)
		for j, c := range coeffs {
			tmp.Mod(c, qi)
			p.Coeffs[i][j] = tmp.Uint64()
		}
	}
	p.IsNTT = false
}

// Centered returns v − Q if v > ⌊Q/2⌋ and v otherwise: the representative of
// v mod Q in (−Q/2, Q/2] for odd Q. v is not modified.
func Centered(v, bigQ *big.Int) *big.Int {
	if v.Cmp(new(big.Int).Rsh(bigQ, 1)) > 0 {
		return new(big.Int).Sub(v, bigQ)
	}
	return new(big.Int).Set(v)
}

// SignedCoeffs returns the centered coefficients of p (coefficient form) as
// float64s, each the nearest float64 to the exact integer, ties to even.
func SignedCoeffs(r *ring.Ring, p *ring.Poly) []float64 {
	bigQ := Modulus(r.Moduli)
	out := make([]float64, r.N)
	for j, v := range CRTCompose(r, p) {
		out[j], _ = new(big.Float).SetInt(Centered(v, bigQ)).Float64()
	}
	return out
}
