package server

import (
	"sync"

	"repro/internal/obs"
)

// registry is the tenant table. Reads (every data-plane request) take
// the RLock; create/delete take the write lock. What a tenant must keep
// ordered (its encryptor's PRNG, a guarded op with its canary probe,
// chaos faults on its key digits) is its session's own mutex, so
// registry lock hold times stay in the nanoseconds.
type registry struct {
	mu    sync.RWMutex
	byID  map[string]*session
	max   int
	chaos bool
	rec   *obs.Recorder
}

func newRegistry(max int, chaos bool, rec *obs.Recorder) *registry {
	return &registry{byID: make(map[string]*session), max: max, chaos: chaos, rec: rec}
}

// create provisions a tenant. Key generation runs outside the registry
// lock (it can take seconds for bootstrap tenants); the id is reserved
// first so two concurrent creates of the same tenant cannot both win.
func (r *registry) create(id string, cfg TenantConfig) (*session, error) {
	r.mu.Lock()
	if _, ok := r.byID[id]; ok {
		r.mu.Unlock()
		return nil, ErrTenantExists
	}
	if len(r.byID) >= r.max {
		r.mu.Unlock()
		return nil, ErrTenantLimit
	}
	r.byID[id] = nil // reservation
	r.mu.Unlock()

	s, err := newSession(id, cfg, r.chaos, r.rec)

	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		delete(r.byID, id)
		return nil, err
	}
	r.byID[id] = s
	r.rec.Add("fhed.tenants.created", 1)
	r.rec.SetGauge("fhed.tenants", float64(len(r.byID)))
	return s, nil
}

// get resolves a tenant id; a reserved-but-still-provisioning id reads
// as unknown (the creator hasn't published it yet).
func (r *registry) get(id string) (*session, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byID[id]
	if !ok || s == nil {
		return nil, ErrTenantUnknown
	}
	return s, nil
}

// remove deletes a tenant; its key material becomes garbage once any
// in-flight request under the session lock finishes.
func (r *registry) remove(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[id]
	if !ok || s == nil {
		return ErrTenantUnknown
	}
	delete(r.byID, id)
	r.rec.Add("fhed.tenants.deleted", 1)
	r.rec.SetGauge("fhed.tenants", float64(len(r.byID)))
	return nil
}

func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}
