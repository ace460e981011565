// Package memtrace records the limb-granular memory access stream of the
// functional library's hot kernels and replays it through the model's
// one on-chip capacity, turning SimFHE's analytic DRAM-traffic predictions
// (internal/simfhe Cost.Bytes) into something the repo can measure.
//
// The tracer follows the obs.Recorder attachment pattern: every method is
// nil-safe, so a detached (nil) *Tracer costs one predictable branch per
// hook and zero allocations — the kernels stay allocation-free in steady
// state (extend_alloc_test.go-style guards enforce it). When attached, the
// hooks append one Access event per limb-sized slice touched, tagged with
// an operand class (ciphertext / switching key / plaintext / scratch),
// and Measure (cache.go) converts the stream into measured read/write
// bytes per class.
//
// Addresses are the virtual addresses of the slices' backing arrays. The
// Go GC does not move heap objects, so addresses recorded during an op
// remain valid for the replay that follows.
package memtrace

import (
	"sync"
	"unsafe"
)

// Class labels the operand a memory access belongs to, mirroring the
// traffic classes of the analytic model (Cost.CtRead/CtWrite, KeyRead,
// PtRead). ClassCt is the zero value: unclassified working-limb traffic
// counts as ciphertext, matching the model's convention that CtRead
// covers "ciphertext / working-limb reads".
type Class uint8

const (
	// ClassCt is ciphertext and working-limb data (the default).
	ClassCt Class = iota
	// ClassKey is switching-key material (relinearization and rotation keys).
	ClassKey
	// ClassPt is encoded-plaintext material (e.g. matrix diagonals).
	ClassPt
	// ClassScratch is transient per-op scratch that still makes the DRAM
	// round trip when it exceeds the cache (iNTT copies, hat rows, ...).
	ClassScratch

	// NumClasses sizes per-class accumulator arrays.
	NumClasses = 4
)

// String returns the short lowercase name used in reports.
func (c Class) String() string {
	switch c {
	case ClassCt:
		return "ct"
	case ClassKey:
		return "key"
	case ClassPt:
		return "pt"
	case ClassScratch:
		return "scratch"
	}
	return "?"
}

// Access is one recorded memory event: a contiguous byte range, its
// direction, and the operand class the recording hook assigned. Kernels
// record whole limb rows (8·N bytes) or tile segments of them; the cache
// simulator re-chops ranges into lines.
//
// Discard marks a dead-scratch declaration rather than a data access:
// the kernel asserts the range will never be read again, so the cache
// simulator drops any resident lines without charging a writeback. This
// mirrors the analytic model's schedules that generate short-lived
// correction limbs "in cache" (e.g. Rescale) — a real accelerator would
// use a scratchpad or a cache-line discard hint for the same effect.
type Access struct {
	Addr    uintptr
	Bytes   int32
	Write   bool
	Discard bool
	Class   Class
}

// tagRange is one registered address interval with a fixed class.
type tagRange struct {
	lo, hi uintptr // [lo, hi)
	class  Class
}

// Tracer collects Access events. All methods are safe on a nil receiver
// (no-ops), so instrumented kernels hold a possibly-nil *Tracer and call
// it unconditionally. Appends take a mutex: hooks may fire from the
// evaluator's worker goroutines, and validation runs trace at workers=1
// where the lock is uncontended.
type Tracer struct {
	mu     sync.Mutex
	events []Access
	tags   []tagRange
}

// New returns an empty attached tracer.
func New() *Tracer { return &Tracer{} }

// sliceAddr returns the base address of p's backing array, or 0 for an
// empty slice.
func sliceAddr(p []uint64) uintptr {
	if len(p) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&p[0]))
}

func (t *Tracer) record(p []uint64, write bool, class Class) {
	if t == nil || len(p) == 0 {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Access{
		Addr:  sliceAddr(p),
		Bytes: int32(len(p) * 8),
		Write: write,
		Class: class,
	})
	t.mu.Unlock()
}

// Read records a read of p as ciphertext/working-limb traffic.
func (t *Tracer) Read(p []uint64) { t.record(p, false, ClassCt) }

// Write records a write of p as ciphertext/working-limb traffic.
func (t *Tracer) Write(p []uint64) { t.record(p, true, ClassCt) }

// ReadClass records a read of p with an explicit operand class.
func (t *Tracer) ReadClass(p []uint64, c Class) { t.record(p, false, c) }

// WriteClass records a write of p with an explicit operand class.
func (t *Tracer) WriteClass(p []uint64, c Class) { t.record(p, true, c) }

// Discard declares p dead: its bytes will never be read again, so a
// cache replaying the stream may invalidate resident lines without
// writing them back.
func (t *Tracer) Discard(p []uint64) {
	if t == nil || len(p) == 0 {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Access{
		Addr:    sliceAddr(p),
		Bytes:   int32(len(p) * 8),
		Discard: true,
		Class:   ClassScratch,
	})
	t.mu.Unlock()
}

// Tag registers p's address range with a fixed class. Classification
// precedence: a registered non-Ct class overrides an event recorded as
// ClassCt, but never overrides an explicit Key/Pt/Scratch event class.
// In practice only plaintext polys are tagged — generic ring hooks record
// them as Ct, and the tag reclassifies those events at replay time.
// Tagging is idempotent; overlapping re-tags update the class.
func (t *Tracer) Tag(p []uint64, c Class) {
	if t == nil || len(p) == 0 {
		return
	}
	lo := sliceAddr(p)
	hi := lo + uintptr(len(p)*8)
	t.mu.Lock()
	for i := range t.tags {
		if t.tags[i].lo == lo && t.tags[i].hi == hi {
			t.tags[i].class = c
			t.mu.Unlock()
			return
		}
	}
	t.tags = append(t.tags, tagRange{lo: lo, hi: hi, class: c})
	t.mu.Unlock()
}

// Classify resolves the class of an address against the tag registry,
// returning ClassCt when untagged.
func (t *Tracer) Classify(addr uintptr) Class {
	if t == nil {
		return ClassCt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.classifyLocked(addr)
}

func (t *Tracer) classifyLocked(addr uintptr) Class {
	for i := range t.tags {
		if addr >= t.tags[i].lo && addr < t.tags[i].hi {
			return t.tags[i].class
		}
	}
	return ClassCt
}

// Resolve returns the effective class of one event: an explicit non-Ct
// event class wins; otherwise a covering tag wins; otherwise Ct.
func (t *Tracer) Resolve(a Access) Class {
	if a.Class != ClassCt {
		return a.Class
	}
	return t.Classify(a.Addr)
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns the recorded stream. The returned slice aliases the
// tracer's buffer; treat it as read-only and do not record concurrently.
func (t *Tracer) Events() []Access {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Slice returns events[from:to], clamped to the recorded range.
func (t *Tracer) Slice(from, to int) []Access {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if to > len(t.events) {
		to = len(t.events)
	}
	if from >= to {
		return nil
	}
	return t.events[from:to]
}

// Reset drops recorded events but keeps the tag registry, so a
// tracer can be reused across ops without re-tagging plaintexts.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}
