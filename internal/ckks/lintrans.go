package ckks

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/mathutil"
	"repro/internal/memtrace"
	"repro/internal/ring"
	"repro/internal/rns"
)

// LinearTransform is an encoded plaintext matrix for homomorphic
// matrix–vector products (the paper's PtMatVecMult): the matrix is stored
// by its nonzero generalized diagonals, split for baby-step/giant-step
// evaluation. Diagonal d = g + i, with giant step g = ⌊d/N1⌋·N1 and baby
// step i = d mod N1, is encoded once, over Q∪P, rotated right by g, so the
// giant rotation can be applied to a whole group's sum. The groups of
// non-zero giant steps form two Horner chains, one rotating by +N1 and one
// by −N1, so every giant step of a side uses the same Galois key.
type LinearTransform struct {
	N1    int // baby-step count
	Level int
	Scale float64

	diagonals int
	babies    []int      // distinct baby steps, ascending
	center    ltGroup    // the diagonals of giant step 0 (none: pt is empty)
	chains    [2]ltChain // the groups of non-zero giant steps: rotated by +N1, by −N1
}

// ltChain is one side of a transform's giant groups, evaluated as a Horner
// chain: acc ← σ_step(acc) + S_m for m from the farthest group's distance
// down to 1, then one last σ_step, so the group at distance m is rotated m
// times by step. Its keyed giant steps all use step's one Galois key.
type ltChain struct {
	step   int       // N1 or slots − N1: the rotation of one Horner step
	groups []ltGroup // farthest first
}

// steps is the chain's number of keyed giant steps: its farthest group's
// distance (0 for an empty chain).
func (c *ltChain) steps() int {
	if len(c.groups) == 0 {
		return 0
	}
	return c.groups[0].m
}

// group returns the chain's group at distance m, appending it when the
// last group is another one (diagonals arrive grouped by giant step).
func (c *ltChain) group(m int) *ltGroup {
	if len(c.groups) == 0 || c.groups[len(c.groups)-1].m != m {
		c.groups = append(c.groups, ltGroup{m: m})
	}
	return &c.groups[len(c.groups)-1]
}

// ltGroup holds the diagonals that share one giant step.
type ltGroup struct {
	m    int          // distance from giant step 0 in Horner steps of the group's chain
	baby []int        // per diagonal, ascending: index into LinearTransform.babies
	pt   []rns.PolyQP // per diagonal: the pre-rotated raised plaintext, in Montgomery form
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
// applied; indices are taken mod n. n1 > 0 fixes the baby-step count
// (tests and the calibration pin one); it panics when its Horner chains
// would take more steps than there are diagonals. n1 ≤ 0 computes it from
// the diagonal index set (mathutil.ChooseN1). The last argument once
// selected a second, raised encoding; every transform is raised now and it
// is ignored (kept while bench/, which passes it, is frozen).
func NewLinearTransform(enc *Encoder, diags map[int][]complex128, level int, scale float64, n1 int, _ bool) *LinearTransform {
	n := enc.params.Slots()
	byIndex := make(map[int][]complex128, len(diags))
	idx := make([]int, 0, len(diags))
	for d, vec := range diags {
		if len(vec) != n {
			panic(fmt.Sprintf("ckks: diagonal %d length (got=%d, want=%d)", d, len(vec), n))
		}
		dd := ((d % n) + n) % n
		if _, dup := byIndex[dd]; dup {
			panic(fmt.Sprintf("ckks: diagonal %d given twice mod %d slots", dd, n))
		}
		byIndex[dd] = vec
		idx = append(idx, dd)
	}
	sort.Ints(idx)
	split := mathutil.NewMatVec(level, idx, n, n1)
	// Past one Horner step per diagonal a split costs more keyed steps
	// than every diagonal a baby step: a computed split never goes there,
	// and an explicit one is refused before anything is encoded.
	if n1 > 0 && split.Giants > len(idx) {
		panic(fmt.Sprintf("ckks: NewLinearTransform n1=%d walks empty giant multiples (got=%d Horner steps, want<=%d, one per diagonal)", n1, split.Giants, len(idx)))
	}
	n1, up, k := split.N1, split.Up, n/split.N1 // k: giant positions
	lt := &LinearTransform{N1: n1, Level: level, Scale: scale, diagonals: len(idx)}
	for _, d := range idx {
		lt.babies = append(lt.babies, d%n1)
	}
	sort.Ints(lt.babies)
	lt.babies = slices.Compact(lt.babies)
	lt.chains = [2]ltChain{{step: n1}, {step: n - n1}}
	for _, d := range idx { // ascending, so each group's diagonals are too
		var g *ltGroup
		switch m := d / n1; {
		case m == 0:
			g = &lt.center
		case m <= up:
			g = lt.chains[0].group(m)
		default:
			g = lt.chains[1].group(k - m)
		}
		g.baby = append(g.baby, sort.SearchInts(lt.babies, d%n1))
		g.pt = append(g.pt, mForm(enc.params, enc.EncodeQP(rotateVec(byIndex[d], -(d/n1*n1)), scale, level)))
	}
	slices.Reverse(lt.chains[0].groups) // farthest first; the −N1 chain arrived that way
	return lt
}

// mForm puts a raised plaintext in Montgomery form in place (R·x per limb,
// R = 2^64): the transform's diagonals are the d operand of the fused
// kernel in ltGroupSum, which divides the R back out. Set-up work, once
// per diagonal.
func mForm(p *Parameters, pt rns.PolyQP) rns.PolyQP {
	for i, s := range p.RingQ().SubRings[:len(pt.Q.Coeffs)] {
		s.MForm(pt.Q.Coeffs[i], pt.Q.Coeffs[i])
	}
	for j, s := range p.RingP().SubRings {
		s.MForm(pt.P.Coeffs[j], pt.P.Coeffs[j])
	}
	return pt
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

// RotationSteps returns, ascending and distinct, the rotation indices in
// [1, slots) an evaluator needs Galois keys for to evaluate this
// transform: its non-zero baby steps and the step of each Horner chain
// that has a group (+N1, and slots − N1 for −N1). Step 0 is never
// returned — no op reads a key for the identity.
func (lt *LinearTransform) RotationSteps() []int {
	var steps []int
	for _, i := range lt.babies { // all < N1
		if i != 0 {
			steps = append(steps, i)
		}
	}
	for _, c := range lt.chains {
		if c.steps() > 0 {
			steps = append(steps, c.step)
		}
	}
	sort.Ints(steps)
	return slices.Compact(steps)
}

// ltPartial is a raised sum of a transform's pieces. Zero until the first
// piece lands.
type ltPartial struct {
	u, v rns.PolyQP
}

// add folds a raised pair into the sum and takes the buffers over: the
// first becomes the sum's accumulator, later ones return to the pool.
func (s *ltPartial) add(rQ, rP *ring.Ring, conv *rns.Converter, u, v rns.PolyQP) {
	if s.u.Q == nil {
		s.u, s.v = u, v
		return
	}
	rQ.Add(s.u.Q, u.Q, s.u.Q)
	rP.Add(s.u.P, u.P, s.u.P)
	rQ.Add(s.v.Q, v.Q, s.v.Q)
	rP.Add(s.v.P, v.P, s.v.P)
	conv.PutPolyQP(u)
	conv.PutPolyQP(v)
}

// EvalLinearTransform applies the transform with the double-hoisted
// baby-step/giant-step schedule (PtMatVecMult with the paper's §3.2 ModUp
// and ModDown hoisting, Figure 5(c)):
//
//  1. one Decomp+ModUp of ct.C1 serves every baby step;
//  2. each distinct baby step i becomes a raised pair (u_i, v_i) over Q∪P —
//     the gathered key product plus P·σ_i(c0), no ModDown; step 0 is the
//     free PModUp lift;
//  3. each giant group's sum S = Σ_i pt[g+i] ⊙ (u_i, v_i) is one fused
//     multiply-accumulate per raised limb, exact in 128 bits;
//  4. the group of giant step 0 is already a summand of the result and
//     stays raised; the other groups run as two Horner chains, acc ←
//     σ(acc) + S walking toward giant step 0 with σ = σ_{+N1} on one side
//     and σ_{−N1} on the other. A keyed giant step ModDowns only v of the
//     raised acc, Decomp+ModUps ⌊v/P⌉ and returns Σ ksk⊙σ(d) + (σ(u), 0),
//     σ(u) summed over every raised limb in one gathered pass: σ is an
//     automorphism of R_PQ, so u never leaves the raised basis;
//  5. one ModDown pair closes the op.
//
// ModUps = 1 + #giant steps, ModDowns = 2 + #giant steps; keyed products =
// #non-zero baby steps + #giant steps (the farthest multiple of N1 on each
// side), each holding its key only for the product, so the transform runs
// inside any key budget; Galois keys = #non-zero baby steps + one per
// chain. The result carries scale ct.Scale·lt.Scale; the caller owes one
// Rescale (EvalLinearTransformRescale pays it inside the closing division).
//
// The baby steps fan out across workers; the giant groups and chains run
// in order, each kernel split over limbs on every worker. Every sum is
// exact modular addition in a fixed order, so the result is bit-identical
// for every worker count.
func (ev *Evaluator) EvalLinearTransform(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	return ev.evalLinearTransform(ct, lt, (*Evaluator).lower)
}

// EvalLinearTransformRescale is Rescale(EvalLinearTransform(ct, lt)), bit
// for bit, with the closing ModDown pair and the Rescale merged into one
// division by P·q_ℓ per half (MAD §3.2): what a DFT stage of bootstrapping
// wants. ct must be above level 0.
func (ev *Evaluator) EvalLinearTransformRescale(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	requireRescalable(ct.Level)
	return ev.evalLinearTransform(ct, lt, (*Evaluator).lowerRescale)
}

// evalLinearTransform is the one transform body; close is the closer its
// raised result ends in.
func (ev *Evaluator) evalLinearTransform(ct *Ciphertext, lt *LinearTransform, close func(*Evaluator, raisedCt, int) *Ciphertext) *Ciphertext {
	if ct.Level > lt.Level {
		panic(fmt.Sprintf("ckks: EvalLinearTransform level (got=%d, want<=%d)", ct.Level, lt.Level))
	}
	p := ev.params
	level := ct.Level
	rQ := p.RingQ().AtLevel(level)
	rP := p.RingP()
	conv := p.Converter()

	// No pred.* attributes: the ledger has no LinearTransform kind.
	sp := ev.startOp("LinearTransform", level, ct.Scale, lt.diagonals)
	defer ev.endOp(sp)
	sp.SetAttr("lt.n1", float64(lt.N1))
	if lt.diagonals == 0 { // the zero map
		zero := raisedCt{u: conv.GetPolyQP(level), v: conv.GetPolyQP(level), level: level, scale: ct.Scale * lt.Scale}
		for _, p := range [2]rns.PolyQP{zero.u, zero.v} {
			p.Q.Zero()
			p.P.Zero()
			p.Q.IsNTT, p.P.IsNTT = true, true
		}
		return close(ev, zero, ev.workers)
	}

	// Resolve every Galois key here (nil for the unkeyed step 0 and for an
	// empty chain): a missing key panics on this goroutine, before any work
	// is spent or fanned out.
	keyed := 0
	resolve := func(k int) *GaloisKey {
		if k == 0 {
			return nil
		}
		keyed++
		return ev.galoisKey(rQ.GaloisElement(k))
	}
	babies := make([]*GaloisKey, len(lt.babies))
	for k, i := range lt.babies {
		babies[k] = resolve(i)
	}
	var giants [2]*GaloisKey
	groups := min(len(lt.center.pt), 1)
	for s, c := range lt.chains {
		if c.steps() > 0 {
			giants[s] = ev.galoisKey(rQ.GaloisElement(c.step))
			keyed += c.steps()
			groups += len(c.groups)
		}
	}
	ev.rec.Add("ckks.rotate", uint64(keyed))
	sp.SetAttr("lt.babies", float64(len(babies)))
	sp.SetAttr("lt.giants", float64(groups))

	// Steps 1–2: the raised baby steps, each a keyed step on the shared
	// digits — or, for step 0, the free PModUp lift of both halves.
	digits := ev.decomposeModUp(level, ct.C1, ev.workers)
	us, vs := make([]rns.PolyQP, len(babies)), make([]rns.PolyQP, len(babies))
	outer, inner := splitWorkers(ev.workers, len(babies))
	ev.fanOut(len(babies), outer, func(k int) {
		child := ev.rec.StartLinked("ckks.lt.baby")
		us[k], vs[k] = conv.GetPolyQP(level), conv.GetPolyQP(level)
		if gk := babies[k]; gk != nil {
			lane := []kskLane{{digits: digits, c0: ct.C0, u: us[k], v: vs[k]}}
			ev.keyedStep(level, lane, rQ.AutomorphismNTTIndex(gk.GaloisEl), &gk.SwitchingKey, inner)
		} else {
			conv.PModUp(level, ct.C0, us[k], inner)
			conv.PModUp(level, ct.C1, vs[k], inner)
		}
		child.End()
	})
	ev.putDigits(digits)

	// Steps 3–4: the group of giant step 0, then each Horner chain.
	groupSum := func(g *ltGroup) (u, v rns.PolyQP) {
		ev.checkInterrupt()
		u, v = conv.GetPolyQP(level), conv.GetPolyQP(level)
		child := ev.rec.StartLinked("ckks.lt.accumulate")
		ev.ltGroupSum(level, g, us, vs, u, v, ev.workers)
		child.End()
		return u, v
	}
	var sum ltPartial
	if len(lt.center.pt) > 0 {
		u, v := groupSum(&lt.center)
		sum.add(rQ, rP, conv, u, v)
	}
	for s := range lt.chains {
		c := &lt.chains[s]
		var acc ltPartial
		for m, next := c.steps(), 0; m >= 1; m-- {
			if next < len(c.groups) && c.groups[next].m == m {
				u, v := groupSum(&c.groups[next])
				acc.add(rQ, rP, conv, u, v)
				next++
			}
			acc.u, acc.v = ev.ltGiantStep(level, giants[s], acc.u, acc.v)
		}
		if acc.u.Q != nil {
			sum.add(rQ, rP, conv, acc.u, acc.v)
		}
	}
	for k := range us {
		conv.PutPolyQP(us[k])
		conv.PutPolyQP(vs[k])
	}

	// Step 5: close.
	return close(ev, raisedCt{u: sum.u, v: sum.v, level: level, scale: ct.Scale * lt.Scale}, ev.workers)
}

// ltGiantStep is one keyed giant step of a Horner chain on the raised pair
// (u, v), which stands for (u/P, v/P): only v leaves the raised basis — one
// ModDown into pooled Q scratch, one Decomp+ModUp of ⌊v/P⌉ — and the step
// returns Σ ksk⊙σ(d) + (σ(u), 0), σ the automorphism of gk, with no lift of
// a c0. It consumes (u, v): u returns to the pool and v's buffer holds the
// result's second half. The ModDown and the ModUp carry their own rns
// spans; the giant span is the key product and the σ(u) pass.
func (ev *Evaluator) ltGiantStep(level int, gk *GaloisKey, u, v rns.PolyQP) (rns.PolyQP, rns.PolyQP) {
	p := ev.params
	rQ, conv := p.RingQ().AtLevel(level), p.Converter()
	// One ModDown: kP iNTTs of the P limbs plus level+1 forward NTTs of the
	// correction limbs. The step is a key switch whose closer is the
	// transform's, so it counts as one here.
	ev.rec.Add("ckks.ntt", uint64(ev.kP()+level+1))
	ev.rec.Add("ckks.keyswitch", 1)
	ev.rec.Add("ckks.limbs", uint64(level+1))
	q1 := rQ.GetScratch()
	conv.ModDown(level, v, q1, ev.workers)
	digits := ev.decomposeModUp(level, q1, ev.workers)
	rQ.PutScratch(q1)

	perm := rQ.AutomorphismNTTIndex(gk.GaloisEl)
	child := ev.rec.StartLinked("ckks.lt.giant")
	out := conv.GetPolyQP(level)
	ev.keyedStep(level, []kskLane{{digits: digits, u: out, v: v}}, perm, &gk.SwitchingKey, ev.workers)
	ev.addAutomorphedRaised(level, u, perm, out)
	child.End()
	ev.putDigits(digits)
	conv.PutPolyQP(u)
	return out, v
}

// addAutomorphedRaised adds σ(x) — x read through the slot permutation
// perm — into dst over all ℓ+1+α raised limbs: one gathered multiply-add
// by 1 per limb, split over the limbs.
func (ev *Evaluator) addAutomorphedRaised(level int, x rns.PolyQP, perm []int, dst rns.PolyQP) {
	nQ, nP := level+1, ev.params.Alpha()
	if ring.EffectiveWorkers(nQ+nP, ev.workers) == 1 {
		// Closure-free serial path, as in gatherMulAccumulate.
		for i := 0; i < nQ+nP; i++ {
			ev.addAutomorphedLimb(i, nQ, x, perm, dst)
		}
		return
	}
	ev.fanOut(nQ+nP, ev.workers, func(i int) { ev.addAutomorphedLimb(i, nQ, x, perm, dst) })
}

// addAutomorphedLimb is addAutomorphedRaised on raised limb i (Q limbs
// first, then P).
func (ev *Evaluator) addAutomorphedLimb(i, nQ int, x rns.PolyQP, perm []int, dst rns.PolyQP) {
	var s *ring.SubRing
	if i < nQ {
		s = ev.params.RingQ().SubRings[i]
	} else {
		s = ev.params.RingP().SubRings[i-nQ]
	}
	ev.mulScalarThenAddLimb(s, raisedLimb(x, i, nQ, s.N), perm, 1, mathutil.ShoupPrecomp(1, s.Q), raisedLimb(dst, i, nQ, s.N))
}

// EvalLinearTransformHoistedModDown is EvalLinearTransform under the name
// the frozen bench/ calls; it goes with the benchmark revision.
func (ev *Evaluator) EvalLinearTransformHoistedModDown(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	return ev.EvalLinearTransform(ct, lt)
}

// ltGroupSum writes Σ_k pt_k ⊙ (u, v)_{baby(k)} over one giant group's
// diagonals into the raised pair (u, v): per raised limb, one call of the
// fused key-switch kernel with the plaintext rows (in Montgomery form) in
// the digit slot and the baby-step halves in the key slots. u and v are
// overwritten, so pooled scratch needs no zeroing. The diagonals replay as
// plaintext traffic.
func (ev *Evaluator) ltGroupSum(level int, g *ltGroup, us, vs []rns.PolyQP, u, v rns.PolyQP, workers int) {
	p := ev.params
	n, nQ, nP := p.N(), level+1, p.Alpha()
	ops := getKskOperands(nQ+nP, 1, len(g.pt))
	defer ev.kskRelease(ops, nil) // no key, nothing pinned
	for k, pt := range g.pt {
		bu, bv := us[g.baby[k]], vs[g.baby[k]]
		for i := 0; i < nQ+nP; i++ {
			r := ops.limb(i)
			r.d[k], r.b[k], r.a[k] = raisedLimb(pt, i, nQ, n), raisedLimb(bu, i, nQ, n), raisedLimb(bv, i, nQ, n)
		}
	}
	ops.setOutputs(0, nQ, n, u, v)
	ev.gatherMulAccumulate(nQ, nP, ops, nil, memtrace.ClassPt, memtrace.ClassCt, workers)
}
