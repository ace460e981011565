package ckks

import (
	"fmt"
	"sort"

	"repro/internal/memtrace"
	"repro/internal/rns"
)

// LinearTransform is an encoded plaintext matrix for homomorphic
// matrix–vector products (the paper's PtMatVecMult): the matrix is stored
// by its nonzero generalized diagonals, each encoded as a plaintext. With
// N1 > 1 the diagonals are pre-rotated for baby-step/giant-step
// evaluation; diagonal d = j·N1 + i is stored rotated right by j·N1.
type LinearTransform struct {
	Diags map[int]*Plaintext // Q-basis plaintexts (standard/BSGS path)
	QP    map[int]rns.PolyQP // raised plaintexts (hoisted-ModDown path)
	N1    int                // baby-step count; ≤ 1 means the naive loop
	Level int
	Scale float64
	slots int
}

// rotateVec returns v rotated left by k (k may be negative).
func rotateVec(v []complex128, k int) []complex128 {
	n := len(v)
	k = ((k % n) + n) % n
	out := make([]complex128, n)
	for i := range v {
		out[i] = v[(i+k)%n]
	}
	return out
}

// NewLinearTransform encodes the given diagonals at the given level and
// scale. diags[d][t] must equal M[t][(t+d) mod n] for the matrix M being
// applied. n1 selects the BSGS baby-step count (pass 0 for the naive
// single loop, or a divisor-ish value near √(#diags) for BSGS).
// If raised is true the diagonals are additionally encoded over Q∪P for
// the hoisted-ModDown evaluation path.
func NewLinearTransform(enc *Encoder, diags map[int][]complex128, level int, scale float64, n1 int, raised bool) *LinearTransform {
	n := enc.params.Slots()
	lt := &LinearTransform{
		Diags: make(map[int]*Plaintext, len(diags)),
		N1:    n1,
		Level: level,
		Scale: scale,
		slots: n,
	}
	if raised {
		lt.QP = make(map[int]rns.PolyQP, len(diags))
	}
	for d, vec := range diags {
		if len(vec) != n {
			panic(fmt.Sprintf("ckks: diagonal %d has %d entries, want %d", d, len(vec), n))
		}
		dd := ((d % n) + n) % n
		v := vec
		if n1 > 1 {
			// Pre-rotate for BSGS: store rot(diag, -j·N1).
			j := dd / n1
			v = rotateVec(vec, -j*n1)
		}
		lt.Diags[dd] = enc.EncodeAtLevel(v, scale, level)
		if raised {
			lt.QP[dd] = enc.EncodeQP(v, scale, level)
		}
	}
	return lt
}

// DiagsFromMatrix extracts the nonzero generalized diagonals of an n×n
// matrix: diags[d][t] = M[t][(t+d) mod n].
func DiagsFromMatrix(m [][]complex128) map[int][]complex128 {
	n := len(m)
	out := make(map[int][]complex128)
	for d := 0; d < n; d++ {
		vec := make([]complex128, n)
		nonzero := false
		for t := 0; t < n; t++ {
			vec[t] = m[t][(t+d)%n]
			if vec[t] != 0 {
				nonzero = true
			}
		}
		if nonzero {
			out[d] = vec
		}
	}
	return out
}

// RotationSteps returns the rotation indices an evaluator needs Galois
// keys for to evaluate this transform (baby and giant steps under BSGS,
// or the raw diagonal indices otherwise).
func (lt *LinearTransform) RotationSteps() []int {
	seen := map[int]bool{}
	for d := range lt.Diags {
		if lt.N1 > 1 {
			seen[d%lt.N1] = true
			seen[d/lt.N1*lt.N1] = true
		} else {
			seen[d] = true
		}
	}
	steps := make([]int, 0, len(seen))
	for s := range seen {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	return steps
}

// EvalLinearTransform applies the transform with the baby-step/giant-step
// schedule: the baby rotations share one Decomp+ModUp (ModUp hoisting) and
// each giant step performs one additional rotation. The result carries
// scale ct.Scale·lt.Scale; the caller owes one Rescale.
func (ev *Evaluator) EvalLinearTransform(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	if lt.N1 <= 1 {
		return ev.evalLinearTransformNaive(ct, lt)
	}
	n1 := lt.N1
	rQ := ev.params.RingQ().AtLevel(ct.Level)

	// Group diagonals by giant step.
	groups := map[int][]int{}
	babySet := map[int]bool{}
	for d := range lt.Diags {
		groups[d/n1] = append(groups[d/n1], d%n1)
		babySet[d%n1] = true
	}
	babySteps := make([]int, 0, len(babySet))
	for i := range babySet {
		babySteps = append(babySteps, i)
	}
	sort.Ints(babySteps)
	rots := ev.RotateHoisted(ct, babySteps)

	var acc *Ciphertext
	giants := make([]int, 0, len(groups))
	for j := range groups {
		giants = append(giants, j)
	}
	sort.Ints(giants)
	for _, j := range giants {
		var inner *Ciphertext
		for _, i := range groups[j] {
			term := ev.MulPlain(rots[i], lt.Diags[j*n1+i])
			if inner == nil {
				inner = term
			} else {
				rQ.Add(inner.C0, term.C0, inner.C0)
				rQ.Add(inner.C1, term.C1, inner.C1)
			}
		}
		if j != 0 {
			inner = ev.Rotate(inner, j*n1)
		}
		if acc == nil {
			acc = inner
		} else {
			rQ.Add(acc.C0, inner.C0, acc.C0)
			rQ.Add(acc.C1, inner.C1, acc.C1)
		}
	}
	return acc
}

// evalLinearTransformNaive is the textbook loop: rotate (hoisted), multiply
// by the diagonal, accumulate — with a ModDown inside every rotation.
func (ev *Evaluator) evalLinearTransformNaive(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	rQ := ev.params.RingQ().AtLevel(ct.Level)
	steps := make([]int, 0, len(lt.Diags))
	for d := range lt.Diags {
		steps = append(steps, d)
	}
	sort.Ints(steps)
	rots := ev.RotateHoisted(ct, steps)
	var acc *Ciphertext
	for _, d := range steps {
		term := ev.MulPlain(rots[d], lt.Diags[d])
		if acc == nil {
			acc = term
		} else {
			rQ.Add(acc.C0, term.C0, acc.C0)
			rQ.Add(acc.C1, term.C1, acc.C1)
		}
	}
	return acc
}

// EvalLinearTransformHoistedModDown applies the transform exactly as
// Figure 5(c) of the paper prescribes: ONE Decomp+ModUp on the input (ModUp
// hoisting), every rotation's key-switch product and the diagonal
// multiplications accumulated in the raised basis R_{PQ} (the linear
// function runs on the additively homomorphic raised ciphertexts produced
// by PModUp), and a single pair of ModDowns at the very end — three RNS
// basis changes total, regardless of the number of diagonals.
//
// The transform must have been built with raised = true.
//
// The diagonal loop fans out across workers with one raised accumulator
// pair per worker, merged serially in worker order afterwards. Modular
// addition is exact, associative and commutative, so this regrouping of
// the sum is bit-identical to the serial left-to-right accumulation.
func (ev *Evaluator) EvalLinearTransformHoistedModDown(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	if lt.QP == nil {
		panic("ckks: transform was not encoded for the raised basis (pass raised=true)")
	}
	p := ev.params
	level := ct.Level
	rQ := p.RingQ().AtLevel(level)
	rP := p.RingP()
	conv := p.Converter()

	// One hoisted Decomp + ModUp for every rotation (Figure 5(c) left box).
	digits := ev.decomposeModUp(level, ct.C1, ev.workers)

	steps := make([]int, 0, len(lt.QP))
	for d := range lt.QP {
		steps = append(steps, d)
	}
	sort.Ints(steps)

	// Resolve Galois keys on this goroutine before fanning out (key
	// lookup panics are only useful here). Nothing is pinned for the
	// sweep: the shared decomposition is what every diagonal reuses, while
	// each key meets exactly one product and is held only for it, so the
	// transform's resident key set is the budget plus the products in
	// flight, not the fan-out.
	type hoistJob struct {
		d  int
		g  uint64
		gk *GaloisKey
	}
	jobs := make([]hoistJob, len(steps))
	for i, d := range steps {
		jobs[i] = hoistJob{d: d}
		if d != 0 {
			g := rQ.GaloisElement(d)
			jobs[i].g, jobs[i].gk = g, ev.galoisKey(g)
		}
	}

	// The raised diagonals are plaintext material: tag them so the generic
	// ring hooks' reads replay as plaintext traffic.
	if ev.tr != nil {
		for _, d := range steps {
			pt := lt.QP[d]
			for i := range pt.Q.Coeffs {
				ev.tr.Tag(pt.Q.Coeffs[i], memtrace.ClassPt)
			}
			for i := range pt.P.Coeffs {
				ev.tr.Tag(pt.P.Coeffs[i], memtrace.ClassPt)
			}
		}
	}

	outer, inner := splitWorkers(ev.workers, len(steps))
	accUs := make([]rns.PolyQP, outer)
	accVs := make([]rns.PolyQP, outer)
	used := make([]bool, outer)
	ev.FanOutChunked(len(steps), outer, func(w, start, end int) {
		accU := ev.getZeroPolyQP(level)
		accV := ev.getZeroPolyQP(level)
		for idx := start; idx < end; idx++ {
			job := jobs[idx]
			pt := lt.QP[job.d]
			u, v := ev.hoistedStepRaised(level, ct, digits, job.d, job.g, job.gk, inner)
			// Diagonal multiply and accumulate — still in the raised basis.
			rQ.MulCoeffsThenAdd(pt.Q, u.Q, accU.Q)
			rP.MulCoeffsThenAdd(pt.P, u.P, accU.P)
			rQ.MulCoeffsThenAdd(pt.Q, v.Q, accV.Q)
			rP.MulCoeffsThenAdd(pt.P, v.P, accV.P)
			conv.PutPolyQP(u)
			conv.PutPolyQP(v)
		}
		accUs[w], accVs[w], used[w] = accU, accV, true
	})
	ev.putDigits(digits)

	// Merge the per-worker partial sums in worker (= step) order.
	var accU, accV rns.PolyQP
	merged := false
	for w := range accUs {
		if !used[w] {
			continue
		}
		if !merged {
			accU, accV, merged = accUs[w], accVs[w], true
			continue
		}
		rQ.Add(accU.Q, accUs[w].Q, accU.Q)
		rP.Add(accU.P, accUs[w].P, accU.P)
		rQ.Add(accV.Q, accVs[w].Q, accV.Q)
		rP.Add(accV.P, accVs[w].P, accV.P)
		conv.PutPolyQP(accUs[w])
		conv.PutPolyQP(accVs[w])
	}
	if !merged { // no diagonals: the transform is the zero map
		accU = ev.getZeroPolyQP(level)
		accV = ev.getZeroPolyQP(level)
	}

	// The two hoisted ModDowns (Figure 5(c) right box).
	p0, p1 := ev.keySwitchDown(level, accU, accV, ev.workers)
	conv.PutPolyQP(accU)
	conv.PutPolyQP(accV)
	return &Ciphertext{C0: p0, C1: p1, Scale: ct.Scale * lt.Scale, Level: level}
}

// getZeroPolyQP draws a pooled raised polynomial, zeroed and flagged NTT:
// the diagonal sweep's multiply-accumulate target.
func (ev *Evaluator) getZeroPolyQP(level int) rns.PolyQP {
	p := ev.params.Converter().GetPolyQP(level)
	p.Q.Zero()
	p.P.Zero()
	p.Q.IsNTT, p.P.IsNTT = true, true
	return p
}

// hoistedStepRaised produces the raised pair (u, v) for one diagonal of
// the hoisted-ModDown schedule: for d == 0 the PModUp lift of the input
// ciphertext, otherwise the rotated key-switch product with P·σ(c0) folded
// into the u half. The returned pair is pooled; release with PutPolyQP.
func (ev *Evaluator) hoistedStepRaised(level int, ct *Ciphertext, digits []rns.PolyQP, d int, g uint64, gk *GaloisKey, workers int) (u, v rns.PolyQP) {
	p := ev.params
	rQ := p.RingQ().AtLevel(level)
	conv := p.Converter()
	if d == 0 {
		// Unrotated term: lift both halves with the free PModUp.
		u = conv.GetPolyQP(level)
		v = conv.GetPolyQP(level)
		conv.PModUp(level, ct.C0, u, workers)
		conv.PModUp(level, ct.C1, v, workers)
		return u, v
	}
	u, v = conv.GetPolyQP(level), conv.GetPolyQP(level)
	ev.kskInnerProduct(level, digits, rQ.AutomorphismNTTIndex(g), &gk.SwitchingKey, u, v, workers)
	// Add P·σ(c0) to the u half so (u, v) is the raised rotation.
	c0r := rQ.GetScratch()
	rQ.AutomorphismNTT(ct.C0, g, c0r)
	lifted := conv.GetPolyQP(level)
	conv.PModUp(level, c0r, lifted, workers)
	rQ.Add(u.Q, lifted.Q, u.Q)
	rQ.PutScratch(c0r)
	conv.PutPolyQP(lifted)
	return u, v
}
