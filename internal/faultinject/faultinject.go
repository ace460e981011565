// Package faultinject deliberately corrupts FHE state at named sites so
// the chaos suite can verify that every fault class is either detected
// (by ckks.Parameters.Validate, the ciphertext checksums, or the
// bootstrap precision guard) or provably harmless.
//
// The package follows the nil-recorder pattern of internal/obs: every
// method is safe on a nil *Injector and reduces to a single pointer
// comparison, so the evaluator's hook sites cost nothing in production
// where no injector is attached. Injection is gated off by default —
// an Injector does nothing until a Fault is armed at a site.
//
// Concurrency: an Injector serializes its own bookkeeping with a mutex,
// but a fault that mutates shared state (e.g. a switching-key digit read
// by several rotation workers) races with concurrent readers by design —
// run chaos experiments with SetWorkers(1).
package faultinject

import (
	"fmt"
	"sync"

	"repro/internal/ring"
)

// Kind enumerates the fault classes of the chaos suite.
type Kind string

const (
	// KindBitFlip flips one bit of one coefficient of one limb — the
	// classic silent-corruption model (DRAM bit flip, PCIe transfer
	// error).
	KindBitFlip Kind = "bitflip"
	// KindTruncateLimbs drops the polynomial's top limbs, simulating a
	// lost partial write of an RNS-decomposed ciphertext.
	KindTruncateLimbs Kind = "truncate-limbs"
	// KindToggleNTT flips the polynomial's representation flag without
	// touching the data — a metadata desynchronization.
	KindToggleNTT Kind = "toggle-ntt"
	// KindZeroLimb clears one limb entirely (a page lost to a failed
	// DMA).
	KindZeroLimb Kind = "zero-limb"
	// KindCorruptScale perturbs a ciphertext's tracked scale, the
	// metadata equivalent of a bit flip in the header.
	KindCorruptScale Kind = "corrupt-scale"
)

// Fault describes one armed corruption. Zero-valued index fields pick
// the first limb/coefficient/bit; out-of-range values are clamped so a
// fault armed for a large ciphertext still fires on a small one. The JSON
// form is the body of fhed's chaos endpoint.
type Fault struct {
	Site  string `json:"site"` // hook site name, e.g. "ckks.Mul.out.c0"
	Kind  Kind   `json:"kind"`
	Limb  int    `json:"limb,omitempty"`  // target limb (BitFlip, ZeroLimb)
	Coeff int    `json:"coeff,omitempty"` // target coefficient (BitFlip)
	Bit   uint   `json:"bit,omitempty"`   // target bit, 0-63 (BitFlip)
	Keep  int    `json:"keep,omitempty"`  // limbs to keep, >=1 (TruncateLimbs)
	Visit int    `json:"visit,omitempty"` // fire on the Visit-th hook visit (1-based; 0 means 1)
}

// Event records one fired fault for the chaos report.
type Event struct {
	Site   string `json:"site"`
	Kind   Kind   `json:"kind"`
	Detail string `json:"detail"`
}

type armed struct {
	f      Fault
	visits int
	fired  bool
}

// Injector holds the armed faults and the log of fired events. The zero
// value is unusable; construct with New. A nil *Injector is a valid
// no-op receiver for every method.
type Injector struct {
	mu     sync.Mutex
	faults []*armed
	events []Event
}

// New returns an empty injector (nothing armed, nothing fires).
func New() *Injector { return &Injector{} }

// Arm registers a fault. Multiple faults may share a site; each fires
// independently on its own visit count.
func (fi *Injector) Arm(f Fault) {
	if fi == nil {
		return
	}
	if f.Visit <= 0 {
		f.Visit = 1
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.faults = append(fi.faults, &armed{f: f})
}

// Events returns a copy of the fired-fault log.
func (fi *Injector) Events() []Event {
	if fi == nil {
		return nil
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return append([]Event(nil), fi.events...)
}

// Reset disarms every fault and clears the event log.
func (fi *Injector) Reset() {
	if fi == nil {
		return
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.faults = fi.faults[:0]
	fi.events = fi.events[:0]
}

// take returns the faults due to fire at this site visit, considering
// only the kinds the calling hook can apply (a scale fault armed at a
// polynomial site must not be consumed by the Poly hook).
func (fi *Injector) take(site string, kinds ...Kind) []Fault {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	var due []Fault
	for _, a := range fi.faults {
		if a.fired || a.f.Site != site {
			continue
		}
		applicable := false
		for _, k := range kinds {
			if a.f.Kind == k {
				applicable = true
				break
			}
		}
		if !applicable {
			continue
		}
		a.visits++
		if a.visits >= a.f.Visit {
			a.fired = true
			due = append(due, a.f)
		}
	}
	return due
}

func (fi *Injector) record(e Event) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.events = append(fi.events, e)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Poly runs the hook at site against polynomial p, applying any armed
// polynomial-class faults. Nil injector and nil polynomial are no-ops.
func (fi *Injector) Poly(site string, p *ring.Poly) {
	if fi == nil || p == nil || len(p.Coeffs) == 0 {
		return
	}
	for _, f := range fi.take(site, KindBitFlip, KindTruncateLimbs, KindToggleNTT, KindZeroLimb) {
		switch f.Kind {
		case KindBitFlip:
			l := clamp(f.Limb, 0, len(p.Coeffs)-1)
			c := clamp(f.Coeff, 0, len(p.Coeffs[l])-1)
			b := f.Bit % 64
			p.Coeffs[l][c] ^= 1 << b
			fi.record(Event{Site: site, Kind: f.Kind,
				Detail: fmt.Sprintf("flipped bit %d of coeff %d in limb %d", b, c, l)})
		case KindTruncateLimbs:
			keep := clamp(f.Keep, 1, len(p.Coeffs))
			p.Coeffs = p.Coeffs[:keep]
			fi.record(Event{Site: site, Kind: f.Kind,
				Detail: fmt.Sprintf("truncated to %d limbs", keep)})
		case KindToggleNTT:
			p.IsNTT = !p.IsNTT
			fi.record(Event{Site: site, Kind: f.Kind,
				Detail: fmt.Sprintf("IsNTT now %v", p.IsNTT)})
		case KindZeroLimb:
			l := clamp(f.Limb, 0, len(p.Coeffs)-1)
			clear(p.Coeffs[l])
			fi.record(Event{Site: site, Kind: f.Kind,
				Detail: fmt.Sprintf("zeroed limb %d", l)})
		}
	}
}

// Scale runs the hook at site against a scale header field, applying any
// armed KindCorruptScale faults (the scale is multiplied by 1.5 — large
// enough that any scale-sensitive consumer must notice).
func (fi *Injector) Scale(site string, s *float64) {
	if fi == nil || s == nil {
		return
	}
	for range fi.take(site, KindCorruptScale) {
		*s *= 1.5
		fi.record(Event{Site: site, Kind: KindCorruptScale, Detail: "scale multiplied by 1.5"})
	}
}
