package ring

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// polyPool recycles full-limb scratch polynomials for a ring. The hot
// evaluator paths (basis conversion, key switching, hoisted rotations)
// otherwise allocate multi-megabyte polynomials per operation; the paper's
// working-set analysis (§4) is precisely about keeping those buffers
// resident, and on the software side that means reusing them.
//
// Pooled polynomials are always allocated at the full modulus-chain size
// and resliced down to the requesting view's limb count, so a pool is
// safely shared by every AtLevel view of the same Ring. sync.Pool is
// goroutine-safe, so parallel workers can draw scratch concurrently.
//
// Occupancy is observable: with a recorder attached (Ring.SetRecorder),
// every draw bumps "ring.pool.get" and every draw that had to allocate a
// fresh polynomial bumps "ring.pool.miss" — the miss/get ratio is the
// direct software analogue of the paper's scratchpad hit rate. The
// recorder is held in an atomic pointer because SetRecorder may race with
// workers drawing scratch.
//
// The same struct holds the exact-size pools of op outputs (GetPoly,
// PutPoly): one per limb count, so a miss allocates exactly what NewPoly
// does and a caller that never hands a polynomial back allocates what it
// would without them. They are not counted.
type polyPool struct {
	limbs int
	pool  sync.Pool
	exact []sync.Pool // [k-1]: polynomials of exactly k limbs
	rec   atomic.Pointer[obs.Recorder]
}

func newPolyPool(limbs, n int) *polyPool {
	p := &polyPool{limbs: limbs, exact: make([]sync.Pool, limbs)}
	p.pool.New = func() any {
		p.rec.Load().Add("ring.pool.miss", 1)
		coeffs := make([][]uint64, limbs)
		backing := make([]uint64, limbs*n)
		for i := range coeffs {
			coeffs[i], backing = backing[:n:n], backing[n:]
		}
		return &Poly{Coeffs: coeffs}
	}
	return p
}

// GetScratch returns a scratch polynomial with exactly one limb per modulus
// of r (reslicing a pooled full-chain buffer down for AtLevel views). The
// contents are stale — callers must overwrite or Zero() before reading.
// Return it with PutScratch when done.
func (r *Ring) GetScratch() *Poly {
	r.scratch.rec.Load().Add("ring.pool.get", 1)
	p := r.scratch.pool.Get().(*Poly)
	p.Resize(len(r.Moduli))
	p.IsNTT = false
	return p
}

// PutScratch returns a polynomial obtained from GetScratch to the pool.
// The caller must not use p afterwards.
func (r *Ring) PutScratch(p *Poly) {
	p.Resize(r.scratch.limbs)
	r.scratch.pool.Put(p)
}

// GetPoly returns a polynomial with exactly one limb per modulus of r,
// from the pool for that limb count: the allocation of an op output. A
// miss allocates what NewPoly allocates; a hit holds stale words, so the
// caller must write every word before reading it. IsNTT is false. Hand it
// back with PutPoly once nothing reads it.
func (r *Ring) GetPoly() *Poly {
	p, _ := r.scratch.exact[len(r.Moduli)-1].Get().(*Poly)
	if p == nil {
		p = r.NewPoly()
	}
	p.IsNTT = false
	if raceEnabled {
		poison(p)
	}
	return p
}

// PutPoly hands p to the pool for its limb count, for a later GetPoly to
// reuse. p must have between one limb and one per modulus of the full
// chain, each of N words, and nothing may read or hold it afterwards:
// under the race detector its words are overwritten here.
func (r *Ring) PutPoly(p *Poly) {
	k := len(p.Coeffs)
	if k == 0 || k > len(r.scratch.exact) {
		panic(fmt.Sprintf("ring: PutPoly limbs (got=%d, want within [1,%d])", k, len(r.scratch.exact)))
	}
	for _, c := range p.Coeffs {
		if len(c) != r.N {
			panic(fmt.Sprintf("ring: PutPoly limb length (got=%d, want=%d)", len(c), r.N))
		}
	}
	if raceEnabled {
		poison(p)
	}
	r.scratch.exact[k-1].Put(p)
}

// poisonWord is no residue of any modulus (every q < 2^62).
const poisonWord = 0xDEADBEEFDEADBEEF

// poison overwrites every word of p with poisonWord.
func poison(p *Poly) {
	for _, c := range p.Coeffs {
		for j := range c {
			c[j] = poisonWord
		}
	}
}
