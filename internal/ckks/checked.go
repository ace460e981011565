package ckks

import (
	"context"

	"repro/internal/faultinject"
	"repro/internal/fherr"
)

// This file is the evaluator's one checked boundary. The panicking
// methods (Add, Mul, Rotate, EvalLinearTransform, …) are the only op
// surface and the hot path: internal kernels keep their cheap panics.
// Code that must never panic and must honour a deadline — a server, a
// CLI — runs any of them through Do, which pays validation, context
// binding, panic conversion and the integrity/fault hooks once per call
// at the API boundary, not per kernel call.

// SetFaultInjector attaches a chaos-testing fault injector (nil
// detaches it). See internal/faultinject; production evaluators leave
// this nil and pay one pointer comparison per hook site. The injector
// also reaches the key vault's materialization site
// ("ckks.keyvault.digitA"), where a fault corrupts the *cached* digit —
// served to every later hit until the vault is flushed.
func (ev *Evaluator) SetFaultInjector(fi *faultinject.Injector) {
	ev.fi = fi
	ev.vault.fi = fi
}

// FaultInjector returns the attached injector, which may be nil.
func (ev *Evaluator) FaultInjector() *faultinject.Injector { return ev.fi }

// SetIntegrity toggles checksum sealing: when on, every ciphertext Do
// returns is Sealed, so later Validate calls detect any out-of-band
// mutation of its payload (see Ciphertext.Seal).
func (ev *Evaluator) SetIntegrity(on bool) { ev.integrity = on }

// WithIntegrity is the construction-time form of SetIntegrity(true).
func WithIntegrity() EvaluatorOption {
	return func(ev *Evaluator) { ev.integrity = true }
}

// WithFaultInjector is the construction-time form of SetFaultInjector.
func WithFaultInjector(fi *faultinject.Injector) EvaluatorOption {
	return func(ev *Evaluator) { ev.SetFaultInjector(fi) }
}

// finish runs the post-op hooks at a named site: seal the result when
// integrity is on, then let an attached injector corrupt it. Injection
// runs after sealing on purpose — a fault at an output site models
// corruption *after* the op produced (and checksummed) its result, which
// is exactly what the checksum exists to catch at the next Validate.
func (ev *Evaluator) finish(site string, out *Ciphertext) {
	if out == nil {
		return
	}
	if ev.integrity {
		out.Seal()
	}
	if ev.fi != nil {
		ev.fi.Poly(site+".c0", out.C0)
		ev.fi.Poly(site+".c1", out.C1)
		ev.fi.Scale(site+".scale", &out.Scale)
	}
}

// Do is the checked boundary: it runs one core op — or any composition
// of them — with the guarantees the panicking surface does not give.
//
//  1. Every ciphertext in ins is validated against the parameter set
//     before any kernel runs.
//  2. f receives a shallow copy of the evaluator bound to ctx: keys,
//     vault, recorder, tracer and injector are shared by pointer, the
//     context is the copy's own, so nothing ambient is written on ev and
//     a later call never inherits a dead context. Op boundaries and
//     fan-out units inside f stop with fherr.ErrCanceled once ctx is
//     done (see context.go); f must call the ops on the evaluator it is
//     handed, not on ev, for that to hold.
//  3. Any panic escaping f — a precondition violation, a worker-pool
//     panic re-thrown by ring.Parallel, a cancellation — is recovered
//     into a typed fherr error; the returned ciphertext is then nil.
//  4. The result is sealed when integrity is on and passed through the
//     fault-injection hooks at site op (op+".c0", ".c1", ".scale").
//
// op is the site name of the core op, e.g. "ckks.Rotate". The call is
// recorded as a span named op+"E" covering validation, f and the hooks,
// next to the core op's own span — their gap is the cost of safety.
//
//	out, err := ev.Do(ctx, "ckks.Rotate", func(ev *Evaluator) *Ciphertext {
//		return ev.Rotate(ct, 3)
//	}, ct)
//
// Plaintext operands are checked with Parameters.ValidatePlaintext
// before the call.
func (ev *Evaluator) Do(ctx context.Context, op string, f func(*Evaluator) *Ciphertext, ins ...*Ciphertext) (out *Ciphertext, err error) {
	sp := ev.rec.StartOp(op + "E")
	defer sp.End()
	for _, ct := range ins {
		if err := ev.params.Validate(ct); err != nil {
			return nil, err
		}
	}
	bound := *ev
	bound.opCtx = ctx
	defer fherr.RecoverTo(&err)
	bound.checkInterrupt()
	res := f(&bound)
	ev.finish(op, res)
	return res, nil
}
