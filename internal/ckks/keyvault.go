package ckks

// The key vault is the runtime half of the paper's §3.2 key compression
// (and ARK's on-demand key generation): seed-compressed switching keys
// store only the b_j halves plus one 32-byte seed per digit, and the
// uniform a_j halves are rematerialized from the seed the moment a
// key-switch touches the digit — then retained in a bounded LRU cache so
// a bootstrap that walks dozens of Galois keys runs inside a fixed key
// working set instead of keeping every expanded half resident forever.
//
// Contract: use = pin. The only reader of a materialized half is the
// key-switch inner product (Evaluator.kskInnerProduct), which acquires its
// β digits — one lookup each — computes, and releases them. An acquired
// digit is pinned: never evicted, its buffer never touched by the vault.
// A digit nobody holds has no reader, so eviction is reuse: a miss that
// would push the vault over budget takes the least-recently-used unheld
// digit's buffer as its own expansion target (evict-then-expand). A budget
// that thrashes therefore allocates nothing, regenerated key material
// lands in memory the cache already holds, and the resident set never
// exceeds the budget by more than the digits products hold right now
// (workers·β). Holding the returned PolyQP past release is a bug.
//
// Concurrency: acquisitions are safe from any number of goroutines (the
// limb- and rotation-parallel paths call straight into the vault) and
// expansion is single-flight per digit: concurrent acquirers of a digit
// in flight pin it and wait for the one expansion.
//
// Progress guarantee: the requested digit is always admitted, even when
// it alone exceeds the budget or everything resident is held — the vault
// then overshoots until the release. A tiny budget degrades to
// expand-per-use; it never deadlocks and never fails.

import (
	"container/list"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/rns"
)

// KeyVaultStats is a point-in-time snapshot of the vault counters, the
// same numbers exported through the obs recorder as
// ckks.keyvault.{hits,misses,expansions,evictions} and the
// ckks.keyvault.resident_bytes gauge.
type KeyVaultStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Expansions    uint64 `json:"expansions"`
	Evictions     uint64 `json:"evictions"`
	ResidentBytes int64  `json:"resident_bytes"`
	PeakResident  int64  `json:"peak_resident_bytes"`
	BudgetBytes   int64  `json:"budget_bytes"`
}

// vaultKey identifies one digit of one switching key. Keys are compared
// by identity: two SwitchingKey values deserialized from the same bytes
// are distinct cache entries, which is exactly the per-tenant isolation
// a key server wants.
type vaultKey struct {
	swk *SwitchingKey
	j   int
}

// vaultEntry is one digit, materialized (done) or in flight. The admitting
// goroutine expands outside the lock and sets done; the entry is pinned
// from admission on, so a is written by exactly one goroutine while no
// other reads it, and read-only while held. An entry evicted with an
// intact buffer is handed whole — struct, buffer, LRU element, source —
// to the miss that displaced it.
type vaultEntry struct {
	key  vaultKey
	a    rns.PolyQP
	pins int
	done bool
	elem *list.Element // position in the LRU list
	src  prng.Source   // reseeded per expansion
}

// keyVault is the bounded demand-materialization cache. One vault per
// Evaluator; all fields are guarded by mu except the seed expansion
// itself, which runs unlocked into a buffer only the expander holds.
type keyVault struct {
	params     *Parameters
	digitBytes int64 // footprint of one expanded half (full chain, all of P)

	mu       sync.Mutex
	expanded sync.Cond // signalled when an in-flight digit becomes done
	entries  map[vaultKey]*vaultEntry
	lru      *list.List // front = most recently used
	budget   int64      // bytes; <= 0 means unlimited
	resident int64      // digitBytes × entries, in-flight ones included
	peak     int64

	hits       uint64
	misses     uint64
	expansions uint64
	evictions  uint64

	rec *obs.Recorder         // nil-safe; counter/gauge export
	tr  *memtrace.Tracer      // nil-safe; expansion writes + eviction discards
	fi  *faultinject.Injector // chaos hook at the materialization site
}

func newKeyVault(params *Parameters) *keyVault {
	kv := &keyVault{
		params:     params,
		digitBytes: int64(params.MaxLevel()+1+params.Alpha()) * int64(params.N()) * 8,
		entries:    make(map[vaultKey]*vaultEntry),
		lru:        list.New(),
	}
	kv.expanded.L = &kv.mu
	return kv
}

// polyQPBytes is the in-memory footprint of a raised polynomial's
// coefficient payload.
func polyQPBytes(p rns.PolyQP) int64 {
	var n int64
	for i := range p.Q.Coeffs {
		n += int64(len(p.Q.Coeffs[i])) * 8
	}
	for i := range p.P.Coeffs {
		n += int64(len(p.P.Coeffs[i])) * 8
	}
	return n
}

// setBudget changes the byte budget (<= 0 unlimited) and immediately
// evicts down to it. Held entries are never evicted, so a budget below
// the currently held set takes full effect only as products release.
func (kv *keyVault) setBudget(bytes int64) {
	kv.mu.Lock()
	kv.budget = bytes
	kv.shrinkLocked()
	resident := kv.resident
	kv.mu.Unlock()
	kv.rec.SetGauge("ckks.keyvault.budget_bytes", float64(bytes))
	kv.rec.SetGauge("ckks.keyvault.resident_bytes", float64(resident))
}

func (kv *keyVault) budgetBytes() int64 {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.budget
}

// stats snapshots the counters.
func (kv *keyVault) stats() KeyVaultStats {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return KeyVaultStats{
		Hits:          kv.hits,
		Misses:        kv.misses,
		Expansions:    kv.expansions,
		Evictions:     kv.evictions,
		ResidentBytes: kv.resident,
		PeakResident:  kv.peak,
		BudgetBytes:   kv.budget,
	}
}

// contains reports whether the digit is currently materialized in the
// vault (test hook).
func (kv *keyVault) contains(swk *SwitchingKey, j int) bool {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	e, ok := kv.entries[vaultKey{swk, j}]
	return ok && e.done
}

// flush drops every unheld entry — the recovery path after suspected
// key-material corruption (cached expansions are state; chaos tests
// corrupt them on purpose) and the bulk release when a tenant's keys
// retire. The buffers go to the collector, not to later misses.
func (kv *keyVault) flush() {
	kv.mu.Lock()
	kv.evictDownToLocked(0, false)
	resident := kv.resident
	kv.mu.Unlock()
	kv.rec.SetGauge("ckks.keyvault.resident_bytes", float64(resident))
}

// acquire returns the materialized uniform half of digit j, expanding it
// from the seed if absent, and pins it: the entry stays resident and its
// buffer untouched until the matching release. This is the one lookup a
// product makes per digit — hits + misses count digits used.
func (kv *keyVault) acquire(swk *SwitchingKey, j int) rns.PolyQP {
	if !swk.Compressed() {
		panic("ckks: switching key digit missing (got=no A half or seed, want=expandable digit)")
	}
	k := vaultKey{swk, j}
	kv.mu.Lock()
	if e, ok := kv.entries[k]; ok {
		e.pins++
		kv.lru.MoveToFront(e.elem)
		kv.hits++
		for !e.done {
			// In flight on another goroutine: the pin keeps the entry ours
			// while we wait for the single expansion.
			kv.expanded.Wait()
		}
		kv.mu.Unlock()
		kv.rec.Add("ckks.keyvault.hits", 1)
		return e.a
	}
	kv.misses++
	e := kv.admitLocked(k)
	kv.mu.Unlock()
	kv.rec.Add("ckks.keyvault.misses", 1)
	kv.materialize(e, swk.Seeds[j])
	return e.a
}

// admitLocked makes room for a missing digit and inserts its entry, pinned
// and in flight. Evict-then-expand: while admission would exceed the
// budget, least-recently-used unheld entries are evicted, and the first
// one whose buffer is intact becomes the new entry — the expansion
// overwrites every word of it. If everything resident is held the digit is
// admitted over budget (the progress guarantee).
func (kv *keyVault) admitLocked(k vaultKey) *vaultEntry {
	var e *vaultEntry
	if kv.budget > 0 {
		e = kv.evictDownToLocked(kv.budget-kv.digitBytes, true)
	}
	if e == nil {
		e = &vaultEntry{} // materialize allocates the buffer, outside the lock
		e.elem = kv.lru.PushFront(e)
	} else {
		kv.lru.MoveToFront(e.elem)
	}
	e.key, e.pins, e.done = k, 1, false
	kv.entries[k] = e
	kv.resident += kv.digitBytes
	if kv.resident > kv.peak {
		kv.peak = kv.resident
	}
	return e
}

// intact reports whether an evicted buffer still has the shape of a fresh
// one: the limb counts and, limbs only ever shrinking, the total size. A
// buffer whose limb structure was tampered with (fault injection truncates
// limbs in place) is dropped rather than reused: the expansion would
// otherwise regenerate a short digit forever.
func (kv *keyVault) intact(a rns.PolyQP) bool {
	return len(a.Q.Coeffs) == kv.params.MaxLevel()+1 && len(a.P.Coeffs) == kv.params.Alpha() &&
		polyQPBytes(a) == kv.digitBytes
}

// materialize runs the seed expansion for a freshly admitted entry — into
// the buffer it inherited, or a new one — and publishes the result. The
// expansion's stores are recorded as key-class writes: at cache replay
// they declare the digit generated on chip rather than streamed from DRAM
// — the ARK accounting this vault exists to realize.
func (kv *keyVault) materialize(e *vaultEntry, seed [prng.SeedSize]byte) {
	if e.a.Q == nil {
		e.a = kv.params.Converter().NewPolyQP(kv.params.MaxLevel())
	}
	e.src.Reseed(seed)
	expandKSKRandomInto(kv.params, &e.src, e.a)
	if kv.fi != nil {
		// Chaos hook: corrupt the digit as it is materialized — the cached
		// copy then serves the corruption to every later hit, the SRAM-
		// corruption persistence the precision guard must catch.
		kv.fi.Poly("ckks.keyvault.digitA", e.a.Q)
		kv.fi.Poly("ckks.keyvault.digitA", e.a.P)
	}
	if kv.tr != nil {
		for i := range e.a.Q.Coeffs {
			kv.tr.WriteClass(e.a.Q.Coeffs[i], memtrace.ClassKey)
		}
		for i := range e.a.P.Coeffs {
			kv.tr.WriteClass(e.a.P.Coeffs[i], memtrace.ClassKey)
		}
	}

	kv.mu.Lock()
	e.done = true
	kv.expansions++
	resident := kv.resident
	kv.mu.Unlock()
	kv.expanded.Broadcast()

	kv.rec.Add("ckks.keyvault.expansions", 1)
	kv.rec.SetGauge("ckks.keyvault.resident_bytes", float64(resident))
}

// release drops one pin on digit j, then reconsiders the budget (an
// over-budget admission may have been waiting for the pin to drop).
func (kv *keyVault) release(swk *SwitchingKey, j int) {
	kv.mu.Lock()
	e, ok := kv.entries[vaultKey{swk, j}]
	if !ok || e.pins == 0 {
		kv.mu.Unlock()
		panic("ckks: keyvault release without matching acquire")
	}
	e.pins--
	kv.shrinkLocked()
	resident := kv.resident
	kv.mu.Unlock()
	kv.rec.SetGauge("ckks.keyvault.resident_bytes", float64(resident))
}

// shrinkLocked enforces the budget on the unheld entries; if only held
// entries remain the vault stays over budget until they are released.
func (kv *keyVault) shrinkLocked() {
	if kv.budget > 0 {
		kv.evictDownToLocked(kv.budget, false)
	}
}

// evictDownToLocked evicts least-recently-used unheld entries until at
// most limit bytes are resident or only held entries remain — eviction of
// a held entry is refused, full stop. With reuse set, the first victim
// whose buffer is intact stays in the LRU list and is returned for the
// caller to re-key; every other victim goes to the collector. The tracer
// is told a victim's limbs are dead so the cache replay drops the lines
// without charging a DRAM writeback — regenerated key material never
// travels to memory, which is the whole point.
func (kv *keyVault) evictDownToLocked(limit int64, reuse bool) (spare *vaultEntry) {
	for el := kv.lru.Back(); el != nil && kv.resident > limit; {
		prev := el.Prev()
		if e := el.Value.(*vaultEntry); e.pins == 0 {
			delete(kv.entries, e.key)
			kv.resident -= kv.digitBytes
			kv.evictions++
			kv.rec.Add("ckks.keyvault.evictions", 1)
			if kv.tr != nil {
				for i := range e.a.Q.Coeffs {
					kv.tr.Discard(e.a.Q.Coeffs[i])
				}
				for i := range e.a.P.Coeffs {
					kv.tr.Discard(e.a.P.Coeffs[i])
				}
			}
			if reuse && spare == nil && kv.intact(e.a) {
				spare = e
			} else {
				kv.lru.Remove(el)
			}
		}
		el = prev
	}
	return spare
}
