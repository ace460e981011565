package ring

import (
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
type polyPool struct {
	limbs int
	pool  sync.Pool
	rec   atomic.Pointer[obs.Recorder]
}

func newPolyPool(limbs, n int) *polyPool {
	p := &polyPool{limbs: limbs}
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
