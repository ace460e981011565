package ckks

import "fmt"

// InnerSum folds the first n slots of the ciphertext (n a power of two)
// so that slot 0 — and, by the rotation structure, every slot position
// j·n — holds Σ_{i<n} x_{j·n+i}: the classic rotate-and-sum ladder of
// log2(n) rotations, the building block of every encrypted inner product
// (it is how HELR computes X·w and Xᵀ·e).
//
// The evaluator must hold Galois keys for rotations 1, 2, 4, …, n/2
// (see InnerSumRotations).
func (ev *Evaluator) InnerSum(ct *Ciphertext, n int) *Ciphertext {
	if n <= 0 || n&(n-1) != 0 || n > ev.params.Slots() {
		panic(fmt.Sprintf("ckks: InnerSum width (got=%d, want=power of two within %d slots)", n, ev.params.Slots()))
	}
	// Resolve the full ladder's Galois keys up front, so a missing key
	// surfaces before any rotation work is spent. Like every other sweep
	// (RotateHoisted, the lintrans transforms) the ladder holds a key only
	// for the one product that uses it: each key is used exactly once, so
	// there is no reuse for eviction to thrash, and keeping all log2(n)
	// keys resident would defeat the budget the vault exists to enforce.
	// Under a tight budget the ladder degrades gracefully to
	// expand-per-step.
	for step := 1; step < n; step <<= 1 {
		ev.galoisKey(ev.params.RingQ().GaloisElement(step))
	}
	out := ct.CopyNew()
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	for step := 1; step < n; step <<= 1 {
		rot := ev.Rotate(out, step)
		rQ.Add(out.C0, rot.C0, out.C0)
		rQ.Add(out.C1, rot.C1, out.C1)
	}
	return out
}

// InnerSumRotations returns the rotation steps InnerSum(·, n) needs keys
// for.
func InnerSumRotations(n int) []int {
	var steps []int
	for step := 1; step < n; step <<= 1 {
		steps = append(steps, step)
	}
	return steps
}

// Average divides the inner sum of the first n slots by n: slot 0 holds
// the mean of the first n inputs. Costs one level (for the 1/n constant).
func (ev *Evaluator) Average(ct *Ciphertext, n int) *Ciphertext {
	sum := ev.InnerSum(ct, n)
	return ev.Rescale(ev.MulByConstReal(sum, 1/float64(n), ev.params.Scale()))
}
