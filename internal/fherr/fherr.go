// Package fherr is the error taxonomy of the fault-tolerance layer: a
// small set of typed sentinel errors shared by every package of the
// stack, a recover-based shim that converts the internal kernels' panics
// into those sentinels at the public API boundary, and the exit-code
// policy both CLIs apply.
//
// The design follows the split the rest of the repository already uses
// for observability (internal/obs) and tracing (internal/memtrace): the
// hot kernels stay branch-free and enforce their preconditions with
// panic(...) in the unified `pkg: what (got=…, want=…)` message format,
// while the one error-returning boundary (ckks.Evaluator.Do, which
// bootstrap.Bootstrapper.BootstrapE also goes through) wraps the
// panicking core with RecoverTo, which classifies the message into a
// sentinel. No malformed-but-well-typed caller input can crash a server
// that calls through the boundary; see docs/ROBUSTNESS.md.
package fherr

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// Sentinel errors: every failure the checked API surfaces wraps exactly
// one of these, so callers dispatch with errors.Is.
var (
	// ErrLevelMismatch: a ciphertext level is out of range, operand
	// levels are inconsistent with an operation's requirements, or a
	// polynomial has the wrong limb count for its level.
	ErrLevelMismatch = errors.New("fherr: level mismatch")
	// ErrScaleMismatch: operand scales disagree, or a scale is not a
	// positive finite float.
	ErrScaleMismatch = errors.New("fherr: scale mismatch")
	// ErrNTTDomain: a polynomial is in the wrong representation
	// (coefficient vs evaluation form) for the operation.
	ErrNTTDomain = errors.New("fherr: NTT domain mismatch")
	// ErrDegree: a ciphertext is structurally incomplete (missing
	// polynomial halves) or has the wrong degree.
	ErrDegree = errors.New("fherr: ciphertext degree")
	// ErrKeyMissing: the evaluator lacks the switching/Galois/
	// relinearization key the operation needs, or a key is malformed.
	ErrKeyMissing = errors.New("fherr: evaluation key missing")
	// ErrLimbLength: a limb slice has the wrong length for the ring
	// degree, or a destination cannot hold the source's limbs.
	ErrLimbLength = errors.New("fherr: limb length mismatch")
	// ErrChecksum: a ciphertext's sealed integrity checksum does not
	// match its contents — the payload was corrupted after sealing.
	ErrChecksum = errors.New("fherr: ciphertext checksum mismatch")
	// ErrPrecisionLoss: the bootstrap precision guard measured a
	// worst-slot precision below the configured floor.
	ErrPrecisionLoss = errors.New("fherr: precision below floor")
	// ErrCanceled: the operation was cut short by a context deadline or
	// cancellation of the context passed to ckks.Evaluator.Do — the work
	// is incomplete but the evaluator's state is intact and reusable.
	ErrCanceled = errors.New("fherr: operation canceled")
	// ErrUsage: a CLI was invoked with bad flags or arguments.
	ErrUsage = errors.New("fherr: usage")
	// ErrInternal: an invariant violation that does not map to any
	// caller-visible precondition — a bug, not bad input.
	ErrInternal = errors.New("fherr: internal error")
)

// Sentinels returns the complete name → sentinel table. The HTTPStatus
// exhaustiveness test cross-checks this list against the package source,
// so adding a sentinel without registering it here (and giving it an
// HTTP mapping) fails the build's tests rather than silently mapping to
// 500.
func Sentinels() map[string]error {
	return map[string]error{
		"ErrLevelMismatch": ErrLevelMismatch,
		"ErrScaleMismatch": ErrScaleMismatch,
		"ErrNTTDomain":     ErrNTTDomain,
		"ErrDegree":        ErrDegree,
		"ErrKeyMissing":    ErrKeyMissing,
		"ErrLimbLength":    ErrLimbLength,
		"ErrChecksum":      ErrChecksum,
		"ErrPrecisionLoss": ErrPrecisionLoss,
		"ErrCanceled":      ErrCanceled,
		"ErrUsage":         ErrUsage,
		"ErrInternal":      ErrInternal,
	}
}

// Error pairs a sentinel kind with a human-readable message. errors.Is
// matches the kind; Error() returns only the message.
type Error struct {
	Kind error
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

// Unwrap exposes the sentinel to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Kind }

// Errorf builds an *Error wrapping the given sentinel.
func Errorf(kind error, format string, args ...any) error {
	return &Error{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// PanicError wraps a panic value captured on a worker goroutine (or by
// RecoverTo at an API boundary) together with the stack of the panicking
// goroutine. ring.Parallel re-panics with exactly one of these on the
// caller's goroutine when any worker closure panics.
type PanicError struct {
	Value any    // the original panic value
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Unwrap exposes an underlying error panic value, so errors.Is sees
// through worker-pool wrapping.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// classifier maps the unified panic-message vocabulary to sentinels. The
// table is ordered: the first matching phrase wins, so the more specific
// phrases come first ("scale mismatch" before "level", "key" before
// "limb").
var classifier = []struct {
	phrase string
	kind   error
}{
	{"canceled", ErrCanceled},
	{"context deadline", ErrCanceled},
	{"scale mismatch", ErrScaleMismatch},
	{"checksum", ErrChecksum},
	{"precision", ErrPrecisionLoss},
	{"key", ErrKeyMissing},
	{"NTT", ErrNTTDomain},
	{"coefficient form", ErrNTTDomain},
	{"degree", ErrDegree},
	{"limb", ErrLimbLength},
	{"level", ErrLevelMismatch},
	{"rescale", ErrLevelMismatch},
	{"slot", ErrDegree},
}

// Classify maps a panic message in the unified `pkg: what (got=…,
// want=…)` format to its sentinel, defaulting to ErrInternal for
// anything outside the vocabulary (index-out-of-range, nil dereference —
// bugs, not bad input).
func Classify(msg string) error {
	for _, c := range classifier {
		if strings.Contains(msg, c.phrase) {
			return c.kind
		}
	}
	return ErrInternal
}

// FromPanic converts a recovered panic value into a classified error.
// Worker-pool wrapping (*PanicError) is looked through so the inner
// kernel message drives classification; already-typed *Error values pass
// through unchanged.
func FromPanic(r any) error {
	switch v := r.(type) {
	case *Error:
		return v
	case *PanicError:
		if inner, ok := v.Value.(*Error); ok {
			return inner
		}
		msg := fmt.Sprint(v.Value)
		return &Error{Kind: Classify(msg), Msg: msg}
	case error:
		var typed *Error
		if errors.As(v, &typed) {
			return typed
		}
		return &Error{Kind: Classify(v.Error()), Msg: v.Error()}
	default:
		msg := fmt.Sprint(r)
		return &Error{Kind: Classify(msg), Msg: msg}
	}
}

// RecoverTo is the documented API-boundary shim: deferred at the top of
// an error-returning entry point, it converts a panic from the internal
// kernels into a classified error assigned to *errp. Usage (this is the
// core of ckks.Evaluator.Do):
//
//	func (ev *Evaluator) Do(ctx context.Context, op string, f func(*Evaluator) *Ciphertext, ins ...*Ciphertext) (out *Ciphertext, err error) {
//		defer fherr.RecoverTo(&err)
//		bound := *ev
//		bound.opCtx = ctx
//		return f(&bound), nil
//	}
//
// A nil panic value (normal return) leaves *errp untouched.
//
// When a panic hook is registered (SetPanicHook), it fires with the
// classified error before RecoverTo returns — the dump-on-fault path the
// flight recorder hangs off.
func RecoverTo(errp *error) {
	if r := recover(); r != nil {
		err := FromPanic(r)
		*errp = err
		if h := panicHook.Load(); h != nil {
			(*h)(err)
		}
	}
}

// panicHook is the process-wide fault observer. An atomic pointer keeps
// registration safe against concurrent RecoverTo shims without putting a
// lock on the recover path.
var panicHook atomic.Pointer[func(error)]

// SetPanicHook registers h to be called with the classified error every
// time RecoverTo converts a panic — the hook point for dump-on-fault
// telemetry (obs.Recorder.DumpFlight writes the flight window when a
// fault is classified). Pass nil to deregister. The hook runs on the
// recovering goroutine and must not panic; keep it short and reentrant,
// since overlapping faults on concurrent goroutines invoke it
// concurrently.
func SetPanicHook(h func(error)) {
	if h == nil {
		panicHook.Store(nil)
		return
	}
	panicHook.Store(&h)
}

// CLI exit codes: the shared policy of cmd/fhe and cmd/simfhe.
const (
	ExitOK         = 0
	ExitFailure    = 1 // environment errors: I/O, network, missing files
	ExitUsage      = 2 // bad flags or arguments
	ExitValidation = 3 // typed validation errors (malformed inputs)
	ExitInternal   = 4 // panics and invariant violations
)

// ExitCode maps an error to the CLI exit-code policy.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, ErrUsage):
		return ExitUsage
	case errors.Is(err, ErrInternal):
		return ExitInternal
	case func() bool { var p *PanicError; return errors.As(err, &p) }():
		return ExitInternal
	case errors.Is(err, ErrLevelMismatch), errors.Is(err, ErrScaleMismatch),
		errors.Is(err, ErrNTTDomain), errors.Is(err, ErrDegree),
		errors.Is(err, ErrKeyMissing), errors.Is(err, ErrLimbLength),
		errors.Is(err, ErrChecksum), errors.Is(err, ErrPrecisionLoss):
		return ExitValidation
	default:
		// ErrCanceled lands here on purpose: a deadline cut the run
		// short, which for a CLI is an environment condition (code 1),
		// not malformed input or a bug.
		return ExitFailure
	}
}
