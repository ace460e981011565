package ckks

import (
	"context"

	"repro/internal/fherr"
	"repro/internal/ring"
)

// Per-op cancellation: the serving layer binds a request context to the
// evaluator so deadlines propagate into long-running homomorphic work.
// The evaluator checks the context at every instrumented op boundary
// (startOp) and between the units of its digit/rotation fan-outs
// (ring.ParallelCtx), so a multi-second bootstrap stops within roughly
// one kernel call of the deadline instead of running to completion.
//
// The cancellation surfaces through the existing fault machinery: an
// expired context panics with a typed fherr.ErrCanceled, which the
// checked (*E) entry points — and bootstrap.BootstrapE — convert into an
// error at the API boundary. The panicking core API therefore panics on
// cancellation like it does on any precondition violation; callers that
// bind a context are expected to call through the checked surface.
//
// The evaluator is not safe for concurrent use; SetOpContext follows the
// same rule as every other setter and must be serialized with the
// operations it governs (the fhed server holds its per-tenant session
// lock across both).

// SetOpContext binds ctx as the cancellation context for subsequent
// operations on this evaluator. nil (the default) disables cancellation
// checks entirely. Cancellation never corrupts evaluator state: fan-out
// items are skipped whole, the vault digits a product holds are released
// by its deferred release, and the evaluator remains usable for the next op.
func (ev *Evaluator) SetOpContext(ctx context.Context) { ev.opCtx = ctx }

// OpContext returns the bound cancellation context, which may be nil.
func (ev *Evaluator) OpContext() context.Context { return ev.opCtx }

// checkInterrupt is the op-boundary cancellation point: it panics with a
// typed cancellation error when the bound context is done. The panic is
// converted to fherr.ErrCanceled at the checked API boundary.
func (ev *Evaluator) checkInterrupt() {
	if ev.opCtx != nil {
		if err := ev.opCtx.Err(); err != nil {
			panic(fherr.Errorf(fherr.ErrCanceled, "ckks: op canceled (%v)", err))
		}
	}
}

// fanOut is ring.Parallel bound to the evaluator's op context: the
// digit-, limb- and rotation-level fan-outs of the key-switch path run
// through it so deadlines take effect between fan-out items, not just
// between ops.
func (ev *Evaluator) fanOut(n, workers int, fn func(i int)) {
	if err := ring.ParallelCtx(ev.opCtx, n, workers, fn); err != nil {
		panic(fherr.Errorf(fherr.ErrCanceled, "ckks: fan-out canceled (%v)", err))
	}
}

// fanOutChunked is ring.ParallelChunked bound to the evaluator's op
// context (one cancellation check per chunk).
func (ev *Evaluator) fanOutChunked(n, workers int, fn func(worker, start, end int)) {
	if err := ring.ParallelChunkedCtx(ev.opCtx, n, workers, fn); err != nil {
		panic(fherr.Errorf(fherr.ErrCanceled, "ckks: fan-out canceled (%v)", err))
	}
}
