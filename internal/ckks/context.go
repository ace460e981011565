package ckks

import (
	"repro/internal/fherr"
	"repro/internal/ring"
)

// Per-op cancellation: Do (checked.go) hands its op an evaluator copy
// bound to the request context, so deadlines propagate into long-running
// homomorphic work. The bound evaluator checks the context at every
// instrumented op boundary (startOp) and between the units of its
// digit/rotation fan-outs (ring.ParallelCtx), so a multi-second
// bootstrap stops within roughly one kernel call of the deadline instead
// of running to completion.
//
// The cancellation surfaces through the existing fault machinery: an
// expired context panics with a typed fherr.ErrCanceled, which Do
// recovers into an error at the API boundary. Cancellation never
// corrupts evaluator state: fan-out items are skipped whole, the vault
// digits a product holds are released by its deferred release, and the
// base evaluator — which never sees the context — remains usable for the
// next op. An evaluator used directly has no context and is never
// interrupted.

// checkInterrupt is the op-boundary cancellation point: it panics with a
// typed cancellation error when the bound context is done. Do converts
// the panic to fherr.ErrCanceled.
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

// FanOutChunked is ring.ParallelChunked bound to the evaluator's op
// context (one cancellation check per chunk). Exported for pipelines
// built on the evaluator (bootstrap's ModRaise) whose own loops must stop
// with the same typed cancellation as the evaluator's.
func (ev *Evaluator) FanOutChunked(n, workers int, fn func(worker, start, end int)) {
	if err := ring.ParallelChunkedCtx(ev.opCtx, n, workers, fn); err != nil {
		panic(fherr.Errorf(fherr.ErrCanceled, "ckks: fan-out canceled (%v)", err))
	}
}
