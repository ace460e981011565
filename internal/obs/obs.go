// Package obs is the repository's zero-dependency observability layer:
// hierarchical wall-clock spans with bounded flight-recorder retention,
// monotonic counters, gauges and lock-cheap log-bucketed latency
// histograms, collected by a concurrency-safe Recorder and exportable as
// a Chrome trace_event JSON file (loadable in chrome://tracing or
// Perfetto), Prometheus text exposition format, or a FLIGHT.json
// post-mortem dump (see DumpFlight).
//
// The package is designed so that instrumentation can stay compiled into
// hot paths permanently: every method is safe on a nil *Recorder (and a
// nil *Span), reducing the disabled cost to a single nil check. Code
// therefore holds a plain *Recorder field that defaults to nil and never
// guards call sites:
//
//	sp := ev.rec.StartSpan("ckks.Mult") // no-op when ev.rec == nil
//	defer sp.End()
//	ev.rec.Add("ckks.ntt", 12)
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSpanCap is the span retention limit of a recorder constructed
// without WithSpanCap: enough to hold the recent history of a heavy
// serving workload (a bootstrap records a few dozen spans) while keeping
// the worst-case footprint bounded — the flight-recorder property a
// long-running server needs.
const DefaultSpanCap = 16384

// DroppedSpansCounter is the counter incremented once per span evicted
// from the bounded span ring.
const DroppedSpansCounter = "obs.dropped_spans"

// Recorder collects spans, counters, gauges and histograms. The zero
// value is NOT ready for use — construct with NewRecorder. A nil
// *Recorder is the no-op recorder: every method returns immediately.
//
// Counters and histograms are sharded: each name maps (via a sync.Map)
// to its own atomic cell, so concurrent Add/Observe calls on hot kernels
// (ring.ntt is incremented once per limb per transform) scale without
// serializing on the recorder mutex. The mutex still guards spans and
// gauges, which are cold by comparison.
//
// Span retention is bounded: the recorder keeps the most recent spanCap
// finished spans in a ring buffer and counts evictions in the
// "obs.dropped_spans" counter, so a recorder attached to a long-running
// process is a flight recorder — constant memory, always holding the
// spans that led up to now — rather than a leak.
//
// Beyond explicit parent links (StartChild), the recorder carries a
// trace cursor: StartOp opens a span as a child of the current op span
// and makes itself current until End, and StartLinked opens a
// lightweight span under whatever op is current *without* advancing the
// cursor. The cursor is an atomic pointer, so worker goroutines inside a
// ring.Parallel fan-out can parent their task spans to the op that
// spawned them — a Mult span owns its ModUp/ModDown/worker children even
// across goroutines. With several op streams racing on one recorder the
// attribution is best-effort (last StartOp wins); the intended shape is
// one logical op stream per recorder.
type Recorder struct {
	mu       sync.Mutex
	start    time.Time
	now      func() time.Time // injectable clock for deterministic tests
	spans    []SpanRecord
	head     int      // next overwrite position once len(spans) == spanCap
	spanCap  int      // ≤ 0 means unbounded
	counters sync.Map // string → *atomic.Uint64
	hists    sync.Map // string → *Histogram
	gauges   map[string]float64
	nextID   atomic.Uint64
	cur      atomic.Pointer[Span] // current op span (trace cursor)
	epoch    atomic.Uint64        // bumped by Reset; spans straddling a Reset re-root
}

// RecorderOption configures a Recorder at construction time.
type RecorderOption func(*Recorder)

// WithSpanCap bounds span retention to the most recent n finished spans
// (the flight-recorder ring). n ≤ 0 removes the bound entirely. The
// default is DefaultSpanCap.
func WithSpanCap(n int) RecorderOption {
	return func(r *Recorder) { r.spanCap = n }
}

// counter returns the atomic cell for name, creating it on first use.
// The Load fast path avoids the allocation LoadOrStore would need.
func (r *Recorder) counter(name string) *atomic.Uint64 {
	if c, ok := r.counters.Load(name); ok {
		return c.(*atomic.Uint64)
	}
	c, _ := r.counters.LoadOrStore(name, new(atomic.Uint64))
	return c.(*atomic.Uint64)
}

// counterSnapshot copies every non-zero counter into a fresh map (nil
// when all counters are zero, matching the pre-sharding map semantics
// where absent and zero were indistinguishable).
func (r *Recorder) counterSnapshot() map[string]uint64 {
	var out map[string]uint64
	r.counters.Range(func(k, v any) bool {
		if n := v.(*atomic.Uint64).Load(); n > 0 {
			if out == nil {
				out = make(map[string]uint64)
			}
			out[k.(string)] = n
		}
		return true
	})
	return out
}

// SpanRecord is one finished span. Times are relative to the recorder's
// construction so exports are stable against wall-clock epoch.
type SpanRecord struct {
	ID     uint64
	Parent uint64 // 0 for root spans
	Name   string
	// Tid is an explicit thread lane for the Chrome-trace export: 0 means
	// "unassigned" (the exporter lane-packs the span next to its parent),
	// > 0 pins the span to a stable worker lane (ring.Parallel records
	// its pool goroutine index here).
	Tid   int
	Start time.Duration
	Dur   time.Duration
	// Counters holds the delta of every recorder counter over the span's
	// lifetime. Overlapping spans each observe the full delta (attribution
	// is by wall-clock interval, not exclusive ownership). Nil for
	// lightweight spans (StartLinked), which skip the counter snapshot.
	Counters map[string]uint64
	// Attrs holds the cost-ledger annotations attached with SetAttr:
	// predicted bytes/ops from the analytic model, measured kernel-counter
	// deltas, ciphertext telemetry (level, scale, degree), trace-window
	// cursors. Nil when no attributes were set.
	Attrs map[string]float64
}

// Span is an in-flight span handle. A nil *Span is a valid no-op.
type Span struct {
	r      *Recorder
	id     uint64
	parent uint64
	name   string
	tid    int
	start  time.Time
	snap   map[string]uint64
	lite   bool  // skip counter snapshot/delta (StartLinked)
	cursor bool  // this span advanced the recorder's trace cursor
	prev   *Span // cursor to restore at End
	epoch  uint64
	attrs  []spanAttr
}

// spanAttr is one pending SetAttr entry; End folds them into the map.
type spanAttr struct {
	key string
	val float64
}

// NewRecorder returns an empty, enabled recorder. Span retention
// defaults to DefaultSpanCap; override with WithSpanCap.
func NewRecorder(opts ...RecorderOption) *Recorder {
	r := &Recorder{
		start:   time.Now(),
		now:     time.Now,
		spanCap: DefaultSpanCap,
		gauges:  make(map[string]float64),
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// StartSpan opens a root span. End must be called to record it.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return r.startSpan(name, 0, false)
}

// StartOp opens a span as a child of the recorder's current op span (a
// root when none is current) and makes it current until End — the
// context-propagation primitive: nested evaluator calls on the same
// goroutine form a tree without threading span handles through every
// signature, and concurrent worker goroutines see the op via
// CurrentSpan/StartLinked. End restores the previous cursor.
func (r *Recorder) StartOp(name string) *Span {
	if r == nil {
		return nil
	}
	prev := r.cur.Load()
	var parent uint64
	if prev != nil {
		parent = prev.id
	}
	s := r.startSpan(name, parent, false)
	s.cursor, s.prev = true, prev
	r.cur.Store(s)
	return s
}

// StartLinked opens a lightweight span parented to the current op span
// without advancing the cursor: the shape for kernel- and worker-side
// children (rns conversions, ring.Parallel pool tasks) that may start
// concurrently on many goroutines. Lightweight spans skip the counter
// snapshot/delta — they carry duration, parentage and attrs only, so
// they are cheap enough for fan-out paths.
func (r *Recorder) StartLinked(name string) *Span {
	if r == nil {
		return nil
	}
	var parent uint64
	if cur := r.cur.Load(); cur != nil {
		parent = cur.id
	}
	return r.startSpan(name, parent, true)
}

// CurrentSpan returns the recorder's current op span (nil when no op is
// in flight or the recorder is nil).
func (r *Recorder) CurrentSpan() *Span {
	if r == nil {
		return nil
	}
	return r.cur.Load()
}

// StartChild opens a span parented under s (falling back to a root span
// when s is nil but the recorder passed at creation is unknown — a nil
// span yields a nil child).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.r.startSpan(name, s.id, false)
}

func (r *Recorder) startSpan(name string, parent uint64, lite bool) *Span {
	id := r.nextID.Add(1)
	var snap map[string]uint64
	if !lite {
		snap = r.counterSnapshot()
	}
	return &Span{
		r: r, id: id, parent: parent, name: name,
		start: r.now(), snap: snap, lite: lite,
		epoch: r.epoch.Load(),
	}
}

// SetAttr attaches a named float64 attribute to the span (recorded into
// SpanRecord.Attrs at End). Span handles are single-owner: SetAttr is
// not safe for concurrent use on one span. Returns the span for
// chaining; nil-safe.
func (s *Span) SetAttr(key string, val float64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, spanAttr{key, val})
	return s
}

// SetTid pins the span to an explicit Chrome-trace thread lane (see
// SpanRecord.Tid). Nil-safe.
func (s *Span) SetTid(tid int) *Span {
	if s == nil {
		return nil
	}
	s.tid = tid
	return s
}

// ID returns the span's unique id (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// End finishes the span, records it into the bounded span ring (evicting
// the oldest record and bumping "obs.dropped_spans" when full), and feeds
// the span's duration into the histogram named after the span — so every
// instrumented operation gets p50/p95/p99 latencies for free.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.r
	end := r.now()
	var delta map[string]uint64
	if !s.lite {
		r.counters.Range(func(k, v any) bool {
			// A Reset between StartSpan and End can zero counters below the
			// span's snapshot; an unsigned subtraction would wrap to a garbage
			// near-2^64 delta, so deltas are clamped at zero instead.
			if cur := v.(*atomic.Uint64).Load(); cur > s.snap[k.(string)] {
				if delta == nil {
					delta = make(map[string]uint64)
				}
				delta[k.(string)] = cur - s.snap[k.(string)]
			}
			return true
		})
	}
	if s.cursor {
		// Restore the trace cursor. The CAS tolerates misnesting: if a
		// concurrent StartOp replaced the cursor, leave theirs in place.
		r.cur.CompareAndSwap(s, s.prev)
	}
	parent := s.parent
	if s.epoch != r.epoch.Load() {
		// A Reset happened while this span was in flight: its parent was
		// discarded with the old epoch, so the span re-roots instead of
		// pointing at an id that no longer exists (no orphans after Reset).
		parent = 0
	}
	var attrs map[string]float64
	if len(s.attrs) > 0 {
		attrs = make(map[string]float64, len(s.attrs))
		for _, a := range s.attrs {
			attrs[a.key] = a.val
		}
	}
	dur := end.Sub(s.start)
	r.histogram(s.name).Record(uint64(max(dur, 0)))
	r.mu.Lock()
	start := s.start.Sub(r.start)
	if start < 0 {
		// The epoch was re-anchored by Reset while this span was in
		// flight; pin it to the new epoch's origin.
		start = 0
	}
	rec := SpanRecord{
		ID:       s.id,
		Parent:   parent,
		Name:     s.name,
		Tid:      s.tid,
		Start:    start,
		Dur:      dur,
		Counters: delta,
		Attrs:    attrs,
	}
	dropped := false
	if r.spanCap > 0 && len(r.spans) >= r.spanCap {
		r.spans[r.head] = rec
		r.head++
		if r.head == r.spanCap {
			r.head = 0
		}
		dropped = true
	} else {
		r.spans = append(r.spans, rec)
	}
	r.mu.Unlock()
	if dropped {
		r.counter(DroppedSpansCounter).Add(1)
	}
}

// Add increments a monotonic counter. It is lock-free after the first
// Add of each name (one atomic add on the counter's own cell), so it is
// safe to call from tight parallel loops.
func (r *Recorder) Add(name string, delta uint64) {
	if r == nil {
		return
	}
	r.counter(name).Add(delta)
}

// SetGauge sets a gauge to the given value.
func (r *Recorder) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Counter returns the current value of a counter (0 when absent or when
// the recorder is nil).
func (r *Recorder) Counter(name string) uint64 {
	if r == nil {
		return 0
	}
	if c, ok := r.counters.Load(name); ok {
		return c.(*atomic.Uint64).Load()
	}
	return 0
}

// Reset drops all recorded spans, zeroes counters, gauges and
// histograms, and re-anchors the epoch: spans recorded after a Reset
// export with Start offsets relative to the Reset, not to the dead
// original epoch.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.epoch.Add(1)   // in-flight spans re-root at End (see Span.End)
	r.cur.Store(nil) // the old op stream's cursor must not leak into the new epoch
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.head = 0
	r.gauges = make(map[string]float64)
	r.start = r.now()
	r.mu.Unlock()
	// sync.Map cannot be reassigned (it embeds a Mutex); delete in place.
	r.counters.Range(func(k, _ any) bool {
		r.counters.Delete(k)
		return true
	})
	r.hists.Range(func(k, _ any) bool {
		r.hists.Delete(k)
		return true
	})
}

// Snapshot is an immutable copy of a recorder's state. Exporters operate
// on snapshots so synthetic traces (e.g. the simulator's modeled
// timelines) can be built without a live recorder.
type Snapshot struct {
	Spans    []SpanRecord
	Counters map[string]uint64
	Gauges   map[string]float64
	Hists    map[string]HistogramSnapshot
}

// Snapshot copies the recorder's current state. When the span ring has
// wrapped, spans come back oldest-first (recording order), exactly the
// retained window a flight dump serializes.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{Counters: make(map[string]uint64)}
	r.counters.Range(func(k, v any) bool {
		s.Counters[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	s.Hists = r.histSnapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Spans = make([]SpanRecord, 0, len(r.spans))
	s.Spans = append(s.Spans, r.spans[r.head:]...)
	s.Spans = append(s.Spans, r.spans[:r.head]...)
	s.Gauges = make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	return s
}

// SpansNamed returns the snapshot's spans with the given name, in
// recording order.
func (s Snapshot) SpansNamed(name string) []SpanRecord {
	var out []SpanRecord
	for _, sp := range s.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// sortedKeys returns map keys in lexical order (deterministic exports).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
