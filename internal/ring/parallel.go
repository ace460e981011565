package ring

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fherr"
	"repro/internal/obs"
)

// taskRec is the recorder Parallel/ParallelChunked feed task latencies
// into. Parallel is a free function, so the attachment is package-level;
// an atomic pointer keeps SetTaskRecorder safe against in-flight pools.
// When nil (the default) the only cost on the fan-out path is one atomic
// pointer load per Parallel call — the serial path is untouched.
var taskRec atomic.Pointer[obs.Recorder]

// SetTaskRecorder attaches rec (nil detaches) to the worker pool: each
// task executed on a pool goroutine records its wall-clock latency into
// the "ring.parallel.task" histogram, and each worker goroutine records
// one "ring.parallel.worker" lite span parented to the submitting op
// span (with a stable per-worker tid), so fan-outs nest under the op
// that issued them in the trace. Task latency spread is the
// load-balance signal — a long p99 tail on uniform limb work means the
// scheduler, not the kernel, is the bottleneck.
func SetTaskRecorder(rec *obs.Recorder) {
	taskRec.Store(rec)
}

// Shared execution layer: a lightweight worker pool over an index range.
//
// Every hot loop in RNS-CKKS is a loop over independent work items — limbs
// for the NTT/iNTT (the paper's Table 3 "limb-wise" access pattern is
// exactly this independence), coefficients for the slot-wise basis
// conversion, digits for the key-switch inner product, rotation steps for
// hoisted fan-outs. All of them parallelize with bit-identical results
// because each item's arithmetic is untouched; only the schedule changes.
// Hardware reproductions (ARK, Taiyi) exploit the same independence with
// wide parallel lanes; this is the software analogue.
//
// Parallel and ParallelChunked are the two primitives the rns, ckks and
// bootstrap layers build on. Both degrade to a plain serial loop when the
// effective worker count is 1, so instrumented code can call them
// unconditionally.

// EffectiveWorkers returns the worker count Parallel and ParallelChunked
// will actually use for the given item count and request. Hot paths branch
// on it to take closure-free serial loops when the answer is 1: a closure
// passed to Parallel is captured by worker goroutines and therefore always
// heap-allocated at its creation site, even when the serial path runs, so
// allocation-free callers must avoid constructing it at all.
func EffectiveWorkers(items, requested int) int {
	return maxWorkers(items, requested)
}

// maxWorkers bounds the worker count to the item count and the machine.
// A requested count ≤ 0 means "use GOMAXPROCS".
func maxWorkers(items, requested int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// panicCollector captures the first panic raised by any worker closure
// and cancels the remaining work: every worker checks stop before each
// item, so a poisoned fan-out drains quickly instead of running every
// remaining item (or deadlocking the join). After the join the caller
// re-raises exactly one *fherr.PanicError on its own goroutine — the
// pool's channels and WaitGroup are fully unwound first, so the pool
// invariants hold and the very next Parallel call works normally.
type panicCollector struct {
	stop  atomic.Bool
	once  sync.Once
	first *fherr.PanicError
}

// capture is deferred inside each worker; it records the first panic
// (with the panicking goroutine's stack) and flips the stop flag.
func (pc *panicCollector) capture() {
	if r := recover(); r != nil {
		pc.once.Do(func() {
			pc.first = &fherr.PanicError{Value: r, Stack: debug.Stack()}
		})
		pc.stop.Store(true)
	}
}

// rethrow re-raises the captured panic, if any, on the caller's
// goroutine. Called after the WaitGroup join.
func (pc *panicCollector) rethrow() {
	if pc.first != nil {
		panic(pc.first)
	}
}

// ctxDone reports whether a (possibly nil) context has been cancelled.
// A nil context never cancels, so the pre-existing Parallel callers pay
// one nil comparison per item and nothing else.
func ctxDone(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// Parallel runs fn(i) for every i in [0, n) using up to `workers`
// goroutines (≤ 0 means GOMAXPROCS, 1 means the calling goroutine only).
// Items are handed out dynamically, so mildly uneven item costs still
// balance. fn must not assume any ordering between items.
//
// If fn panics on a worker goroutine, the remaining items are cancelled,
// every worker joins, and the first panic is re-raised on the caller's
// goroutine wrapped as *fherr.PanicError (carrying the original value
// and worker stack). The pool is reusable afterwards. On the serial path
// (effective worker count 1) fn's panic propagates unwrapped, already on
// the caller's goroutine; fherr.FromPanic classifies both shapes.
func Parallel(n, workers int, fn func(i int)) {
	_ = ParallelCtx(nil, n, workers, fn)
}

// ParallelCtx is Parallel with a cancellation point between items: every
// worker (and the serial path) checks ctx.Err() before starting each
// item, so a request deadline expiring mid-fan-out stops the remaining
// work after at most one item's latency instead of running the whole
// range. Items already started are never interrupted — results are
// either fully computed or not started, so a cancelled fan-out leaves no
// half-written polynomial behind the caller could later read.
//
// Returns ctx.Err() when the fan-out was cut short, nil when every item
// ran. A nil ctx never cancels and makes ParallelCtx equivalent to
// Parallel. Panic semantics are identical to Parallel (a worker panic
// takes precedence over cancellation: it re-raises rather than
// returning).
func ParallelCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	w := maxWorkers(n, workers)
	if w == 1 {
		for i := 0; i < n; i++ {
			if ctxDone(ctx) {
				return ctx.Err()
			}
			fn(i)
		}
		return nil
	}
	var wg sync.WaitGroup
	var pc panicCollector
	var cancelled atomic.Bool
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	rec := taskRec.Load()
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(g int) {
			defer wg.Done()
			defer pc.capture()
			// One lite span per worker goroutine, parented to whatever op
			// span is current on the submitting side and tagged with a
			// stable worker tid so Chrome traces show one lane per worker.
			// The caller blocks in wg.Wait(), so the trace cursor it set
			// cannot move underneath us.
			sp := rec.StartLinked("ring.parallel.worker").SetTid(g + 1)
			defer sp.End()
			for i := range next {
				if pc.stop.Load() {
					continue // drain cancelled items
				}
				if ctxDone(ctx) {
					cancelled.Store(true)
					pc.stop.Store(true)
					continue
				}
				if rec != nil {
					t0 := time.Now()
					fn(i)
					rec.ObserveDuration("ring.parallel.task", time.Since(t0))
				} else {
					fn(i)
				}
			}
		}(g)
	}
	wg.Wait()
	pc.rethrow()
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// ParallelChunked partitions [0, n) into one contiguous chunk per worker
// and runs fn(worker, start, end) for each non-empty chunk. The worker
// index is in [0, maxWorkers(n, workers)) and is unique per chunk, so
// callers can keep per-worker accumulators without locking. Chunk
// boundaries depend only on (n, effective worker count), never on timing.
//
// Worker panics follow the Parallel contract: chunks not yet started are
// cancelled, all workers join, and the first panic is re-raised on the
// caller's goroutine as *fherr.PanicError.
func ParallelChunked(n, workers int, fn func(worker, start, end int)) {
	_ = ParallelChunkedCtx(nil, n, workers, fn)
}

// ParallelChunkedCtx is ParallelChunked with a cancellation point before
// each chunk: a worker whose chunk has not started when ctx is cancelled
// skips it entirely. Because each worker owns exactly one contiguous
// chunk, cancellation latency is bounded by one chunk's runtime; callers
// needing finer granularity should split n across more workers or use
// ParallelCtx. Returns ctx.Err() when at least one chunk was skipped,
// nil when every chunk ran. A nil ctx never cancels.
func ParallelChunkedCtx(ctx context.Context, n, workers int, fn func(worker, start, end int)) error {
	if n <= 0 {
		return nil
	}
	w := maxWorkers(n, workers)
	if w == 1 {
		if ctxDone(ctx) {
			return ctx.Err()
		}
		fn(0, 0, n)
		return nil
	}
	var wg sync.WaitGroup
	var pc panicCollector
	var cancelled atomic.Bool
	rec := taskRec.Load()
	wg.Add(w)
	for g := 0; g < w; g++ {
		start := g * n / w
		end := (g + 1) * n / w
		go func(g, start, end int) {
			defer wg.Done()
			defer pc.capture()
			if start >= end || pc.stop.Load() {
				return
			}
			if ctxDone(ctx) {
				cancelled.Store(true)
				pc.stop.Store(true)
				return
			}
			sp := rec.StartLinked("ring.parallel.worker").SetTid(g + 1)
			defer sp.End()
			if rec != nil {
				t0 := time.Now()
				fn(g, start, end)
				rec.ObserveDuration("ring.parallel.task", time.Since(t0))
			} else {
				fn(g, start, end)
			}
		}(g, start, end)
	}
	wg.Wait()
	pc.rethrow()
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}
