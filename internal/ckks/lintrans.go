package ckks

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/memtrace"
	"repro/internal/ring"
	"repro/internal/rns"
)

// giantStepWeight is the price of one keyed giant step in keyed baby steps,
// the exchange rate chooseN1 minimises #babies + giantStepWeight·#giants
// with. Both steps pay one gathered key product (and, under a key budget
// that thrashes, the β seed expansions behind it); a giant step pays a
// ModDown pair and a Decomp+ModUp on top. Span times put the ratio at 4 on
// matvec_hoisted (N = 2^12, 6+2 limbs, β = 3, seed-only keys: 1.9 ms a
// baby step, 7.8 ms a giant step) and the choice is flat around it: any
// weight in (2, 8) splits a dense band of 64 diagonals at n1 = 16 (15 + 4
// keyed steps and 19 keys instead of 64). With resident keys and β = 6
// (bootstrap's top levels) the ratio is nearer 8, but there a weight of 8
// only trades each two-sided band's one giant step for 7 more baby steps
// and keys: the same latency within noise, 1.6× the live heap. Weights 3
// and 4 pick the same splits for every transform in the repo.
const giantStepWeight = 4

// LinearTransform is an encoded plaintext matrix for homomorphic
// matrix–vector products (the paper's PtMatVecMult): the matrix is stored
// by its nonzero generalized diagonals, split for baby-step/giant-step
// evaluation. Diagonal d = g + i, with giant step g = ⌊d/N1⌋·N1 and baby
// step i = d mod N1, is encoded once, over Q∪P, rotated right by g, so the
// giant rotation can be applied to a whole group's sum.
type LinearTransform struct {
	N1    int // baby-step count
	Level int
	Scale float64

	diagonals int
	babies    []int     // distinct baby steps, ascending
	groups    []ltGroup // one per distinct giant step, ascending
}

// ltGroup holds the diagonals that share one giant step.
type ltGroup struct {
	giant int          // the rotation applied to the group's sum
	baby  []int        // per diagonal, ascending: index into LinearTransform.babies
	pt    []rns.PolyQP // per diagonal: the pre-rotated raised plaintext, in Montgomery form
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
// applied; indices are taken mod n. n1 > 0 fixes the baby-step count (any
// value works: tests and the calibration pin one); n1 ≤ 0 computes it from
// the diagonal index set (see chooseN1). The last argument once selected a
// second, raised encoding; every transform is raised now and it is ignored
// (kept while bench/, which passes it, is frozen).
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
	if n1 <= 0 {
		n1 = chooseN1(idx, n)
	}
	lt := &LinearTransform{N1: n1, Level: level, Scale: scale, diagonals: len(idx)}
	for _, d := range idx {
		lt.babies = append(lt.babies, d%n1)
	}
	sort.Ints(lt.babies)
	lt.babies = slices.Compact(lt.babies)
	for _, d := range idx { // ascending, so groups and their diagonals are too
		giant := d / n1 * n1
		if len(lt.groups) == 0 || lt.groups[len(lt.groups)-1].giant != giant {
			lt.groups = append(lt.groups, ltGroup{giant: giant})
		}
		g := &lt.groups[len(lt.groups)-1]
		g.baby = append(g.baby, sort.SearchInts(lt.babies, d%n1))
		g.pt = append(g.pt, mForm(enc.params, enc.EncodeQP(rotateVec(byIndex[d], -giant), scale, level)))
	}
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

// chooseN1 returns the power of two n1 in [1, slots] that minimises the
// keyed steps of the baby-step/giant-step split of the sorted diagonal
// indices idx: #distinct non-zero baby steps + giantStepWeight · #distinct
// non-zero giant steps. The smallest minimiser wins (fewer raised
// baby-step pairs alive at once). n1 = slots is the split with no giant
// step at all: every diagonal a baby step, one ModDown pair in total.
func chooseN1(idx []int, slots int) int {
	best, bestCost := 1, -1
	for n1 := 1; n1 <= slots; n1 <<= 1 {
		babies, giants := make([]bool, n1), make([]bool, slots/n1)
		cost := 0
		for _, d := range idx {
			if i := d % n1; i != 0 && !babies[i] {
				babies[i] = true
				cost++
			}
			if j := d / n1; j != 0 && !giants[j] {
				giants[j] = true
				cost += giantStepWeight
			}
		}
		if bestCost < 0 || cost < bestCost {
			best, bestCost = n1, cost
		}
	}
	return best
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

// RotationSteps returns, ascending, the rotation indices an evaluator
// needs Galois keys for to evaluate this transform: its distinct non-zero
// baby steps and giant steps. Step 0 is never returned — no op reads a key
// for the identity.
func (lt *LinearTransform) RotationSteps() []int {
	var steps []int
	for _, i := range lt.babies { // all < N1
		if i != 0 {
			steps = append(steps, i)
		}
	}
	for _, g := range lt.groups { // all multiples of N1
		if g.giant != 0 {
			steps = append(steps, g.giant)
		}
	}
	return steps
}

// ltPartial is one worker's share of a transform: the raised sum of its
// giant groups' outputs. Zero until the first group lands.
type ltPartial struct {
	u, v rns.PolyQP
}

// add folds a raised pair into the share and takes the buffers over: the
// first becomes the share's accumulator, later ones return to the pool.
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
// and ModDown hoisting, Figure 5(c), inside each giant group):
//
//  1. one Decomp+ModUp of ct.C1 serves every baby step;
//  2. each distinct baby step i becomes a raised pair (u_i, v_i) over Q∪P —
//     the gathered key product plus P·σ_i(c0), no ModDown; step 0 is the
//     free PModUp lift;
//  3. each giant group's sum Σ_i pt[g+i] ⊙ (u_i, v_i) is one fused
//     multiply-accumulate per raised limb, exact in 128 bits;
//  4. the group of giant step 0 is already a summand of the result and
//     stays raised; every other group pays one ModDown pair, one
//     Decomp+ModUp and one keyed step by its giant step — the gathered key
//     product plus the lift of the rotated first half — whose raised
//     output joins the same accumulator;
//  5. one ModDown pair closes the op.
//
// ModUps = ModDown pairs = 1 + #non-zero giant steps; keyed products =
// #non-zero baby steps + #non-zero giant steps, each holding its key only
// for the product, so the transform runs inside any key budget. The result
// carries scale ct.Scale·lt.Scale; the caller owes one Rescale
// (EvalLinearTransformRescale pays it inside the closing division).
//
// Baby steps and giant groups fan out across workers, each worker summing
// its groups into its own accumulators, merged in worker order afterwards.
// Every sum is exact modular addition, so the result is bit-identical for
// every worker count.
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
	if len(lt.groups) == 0 { // no diagonals: the zero map
		zero := raisedCt{u: conv.GetPolyQP(level), v: conv.GetPolyQP(level), level: level, scale: ct.Scale * lt.Scale}
		for _, p := range [2]rns.PolyQP{zero.u, zero.v} {
			p.Q.Zero()
			p.P.Zero()
			p.Q.IsNTT, p.P.IsNTT = true, true
		}
		return close(ev, zero, ev.workers)
	}

	// Resolve every Galois key here (nil for the unkeyed step 0): a missing
	// key panics on this goroutine, before any work is spent or fanned out.
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
	giants := make([]*GaloisKey, len(lt.groups))
	for k := range lt.groups {
		giants[k] = resolve(lt.groups[k].giant)
	}
	ev.rec.Add("ckks.rotate", uint64(keyed))
	sp.SetAttr("lt.babies", float64(len(babies)))
	sp.SetAttr("lt.giants", float64(len(giants)))

	// Steps 1–2: the raised baby steps, each a keyed step on the shared
	// digits — or, for step 0, the free PModUp lift of both halves.
	digits := ev.decomposeModUp(level, ct.C1, ev.workers)
	us, vs := make([]rns.PolyQP, len(babies)), make([]rns.PolyQP, len(babies))
	outer, inner := splitWorkers(ev.workers, len(babies))
	ev.fanOut(len(babies), outer, func(k int) {
		child := ev.rec.StartLinked("ckks.lt.baby")
		us[k], vs[k] = conv.GetPolyQP(level), conv.GetPolyQP(level)
		if gk := babies[k]; gk != nil {
			ev.keyedStep(level, digits, rQ.AutomorphismNTTIndex(gk.GaloisEl), &gk.SwitchingKey, ct.C0, us[k], vs[k], inner)
		} else {
			conv.PModUp(level, ct.C0, us[k], inner)
			conv.PModUp(level, ct.C1, vs[k], inner)
		}
		child.End()
	})
	ev.putDigits(digits)

	// Steps 3–4: the giant groups, summed per worker.
	outer, inner = splitWorkers(ev.workers, len(lt.groups))
	parts := make([]ltPartial, outer)
	ev.FanOutChunked(len(lt.groups), outer, func(w, start, end int) {
		for k := start; k < end; k++ {
			ev.checkInterrupt()
			u, v := conv.GetPolyQP(level), conv.GetPolyQP(level)
			child := ev.rec.StartLinked("ckks.lt.accumulate")
			ev.ltGroupSum(level, &lt.groups[k], us, vs, u, v, inner)
			child.End()
			if gk := giants[k]; gk != nil {
				// The ModDown pair and the ModUp carry their own rns spans;
				// the giant span is the keyed step that overwrites (u, v).
				q0, q1 := rQ.GetScratch(), rQ.GetScratch()
				ev.modDownPair(level, u, v, q0, q1, inner)
				digits := ev.decomposeModUp(level, q1, inner)
				child = ev.rec.StartLinked("ckks.lt.giant")
				ev.keyedStep(level, digits, rQ.AutomorphismNTTIndex(gk.GaloisEl), &gk.SwitchingKey, q0, u, v, inner)
				child.End()
				ev.putDigits(digits)
				rQ.PutScratch(q0)
				rQ.PutScratch(q1)
			}
			parts[w].add(rQ, rP, conv, u, v)
		}
	})
	for k := range us {
		conv.PutPolyQP(us[k])
		conv.PutPolyQP(vs[k])
	}

	// Merge the workers' shares in worker order (there are no more workers
	// than groups, so every share holds at least one), then step 5: close.
	sum := parts[0]
	for _, part := range parts[1:] {
		sum.add(rQ, rP, conv, part.u, part.v)
	}
	return close(ev, raisedCt{u: sum.u, v: sum.v, level: level, scale: ct.Scale * lt.Scale}, ev.workers)
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
	ops := getKskOperands(nQ+nP, len(g.pt))
	defer ev.kskRelease(ops, nil) // no key, nothing pinned
	for k, pt := range g.pt {
		bu, bv := us[g.baby[k]], vs[g.baby[k]]
		for i := 0; i < nQ+nP; i++ {
			d, b, a := ops.limb(i)
			d[k], b[k], a[k] = raisedLimb(pt, i, nQ, n), raisedLimb(bu, i, nQ, n), raisedLimb(bv, i, nQ, n)
		}
	}
	ev.gatherMulAccumulate(nQ, nP, ops, nil, u, v, memtrace.ClassPt, memtrace.ClassCt, workers)
}
