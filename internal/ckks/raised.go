package ckks

import (
	"fmt"
	"math"

	"repro/internal/mathutil"
	"repro/internal/ring"
	"repro/internal/rns"
)

// raisedCt is a ciphertext whose halves are still over Q∪P: it stands for
// (u, v)/P at the given level and scale — Algorithm 3's intermediate
// value before the closing ModDown, which MAD §3.2 keeps working on.
// Everything linear and exact can be applied to the pair first (add the
// lift P·x of a Q-basis polynomial, double it, add a constant), because
// ⌊(u + P·d)/P⌋ = ⌊u/P⌋ + d. The pair is pooled scratch: every raisedCt
// ends in exactly one of the two closers, lower or lowerRescale.
type raisedCt struct {
	u, v  rns.PolyQP
	level int
	scale float64
}

// mulPair is one product of a batched Mult: its operands and the exact
// linear middle applied to its raised product before the closer (nil:
// none).
type mulPair struct {
	ct0, ct1 *Ciphertext
	middle   func(raisedCt)
}

// mulRaised is the one tensor core every ciphertext product shares, for
// up to ring.MaxLanes products at one level, written into out: per product
// d0 = a0·b0, d1 = a0·b1 + a1·b0, d2 = a1·b1 (the same operand twice
// takes the symmetric d1 = 2·a0·a1) and the Decomp+ModUp of d2; then one
// keyed step relinearizes every d2 with its d0 as c0, the products sharing
// one pass over the relinearization key; then the lift of each d1 into its
// v. All temporaries are pooled. The caller owns the op span; the linked
// children here split it into tensors, key pass (with the lifts of d0) and
// lifts of d1 next to the rns spans of the ModUps.
func (ev *Evaluator) mulRaised(level int, pairs []mulPair, out []raisedCt) {
	if ev.keys.Rlk == nil {
		panic("ckks: relinearization key missing (got=nil, want=key)")
	}
	rlk := &ev.keys.Rlk.SwitchingKey
	if err := ev.params.checkKeyLevels(rlk); err != nil {
		panic(err)
	}
	ev.rec.Add("ckks.mult", uint64(len(pairs)))
	rQ, conv := ev.params.RingQ().AtLevel(level), ev.params.Converter()

	var lanes [ring.MaxLanes]kskLane
	var sets [ring.MaxLanes]*[]rns.PolyQP
	var d1s [ring.MaxLanes]*ring.Poly
	for k, pr := range pairs {
		child := ev.rec.StartLinked("ckks.mult.tensor")
		d0, d1, d2 := rQ.GetScratch(), rQ.GetScratch(), rQ.GetScratch()
		for i, s := range rQ.SubRings {
			ev.tensorLimb(s, pr.ct0, pr.ct1, i, d0.Coeffs[i], d1.Coeffs[i], d2.Coeffs[i])
		}
		d0.IsNTT, d1.IsNTT, d2.IsNTT = true, true, true
		child.End()
		out[k] = raisedCt{u: conv.GetPolyQP(level), v: conv.GetPolyQP(level), level: level, scale: pr.ct0.Scale * pr.ct1.Scale}
		sets[k] = ev.decomposeModUp(level, d2, ev.workers)
		lanes[k] = kskLane{digits: *sets[k], c0: d0, u: out[k].u, v: out[k].v}
		d1s[k] = d1
		rQ.PutScratch(d2)
	}

	child := ev.rec.StartLinked("ckks.ks.product")
	ev.keyPass(level, lanes[:len(pairs)], nil, rlk, ev.workers)
	child.End()

	child = ev.rec.StartLinked("ckks.mult.lift")
	for k := range pairs {
		ev.addLifted(d1s[k], nil, out[k].v, 0, level+1)
		ev.putDigits(sets[k])
		rQ.PutScratch(lanes[k].c0)
		rQ.PutScratch(d1s[k])
	}
	child.End()
}

// tensorLimb writes limb i of the tensor product in one pass
// (ring.SubRing.Tensor): each input row is read once and each output row
// written once (Table 3's Tensor).
func (ev *Evaluator) tensorLimb(s *ring.SubRing, ct0, ct1 *Ciphertext, i int, d0, d1, d2 []uint64) {
	n := s.N
	a0, a1, b0, b1 := ct0.C0.Coeffs[i][:n], ct0.C1.Coeffs[i][:n], ct1.C0.Coeffs[i][:n], ct1.C1.Coeffs[i][:n]
	d0, d1, d2 = d0[:n], d1[:n], d2[:n]
	ev.tr.Read(a0)
	ev.tr.Read(a1)
	if ct0 == ct1 {
		s.TensorSquare(d0, d1, d2, a0, a1)
	} else {
		ev.tr.Read(b0)
		ev.tr.Read(b1)
		s.Tensor(d0, d1, d2, a0, a1, b0, b1)
	}
	ev.tr.Write(d0)
	ev.tr.Write(d1)
	ev.tr.Write(d2)
}

// addLifted adds P·σ(x) — the PModUp lift of a Q-basis polynomial
// (Algorithm 5: one scalar multiply per coefficient, zero P limbs), read
// through the slot permutation perm (nil = identity) — into the Q limbs
// [lo, hi) of the raised polynomial dst, in one pass and without
// materializing it.
func (ev *Evaluator) addLifted(x *ring.Poly, perm []int, dst rns.PolyQP, lo, hi int) {
	conv := ev.params.Converter()
	for i := lo; i < hi; i++ {
		w, ws := conv.PModQ(i)
		ev.mulScalarThenAddLimb(ev.params.RingQ().SubRings[i], x.Coeffs[i], perm, w, ws, dst.Q.Coeffs[i])
	}
}

// doubleRaised sets r = 2·r over all ℓ+1+α limbs.
func (ev *Evaluator) doubleRaised(r raisedCt) {
	rQ, rP := ev.params.RingQ().AtLevel(r.level), ev.params.RingP()
	for _, p := range [2]rns.PolyQP{r.u, r.v} {
		rQ.Add(p.Q, p.Q, p.Q)
		rP.Add(p.P, p.P, p.P)
	}
}

// addConstRaised adds the real constant c to every slot of r, as
// AddConstReal would to the lowered ciphertext: P·round(c·scale) on the Q
// limbs of u (a constant is the same word in every NTT slot).
func (ev *Evaluator) addConstRaised(r raisedCt, c float64) {
	rQ, conv := ev.params.RingQ().AtLevel(r.level), ev.params.Converter()
	v := math.Round(c * r.scale)
	for i, s := range rQ.SubRings {
		pw, ps := conv.PModQ(i)
		ci := mathutil.MulModShoup(mathutil.ReduceFloat(v, s.Q), pw, ps, s.Q)
		ui := r.u.Q.Coeffs[i][:s.N]
		s.ReduceThenAddConst(ui, s.Q, ci, ui)
	}
}

// subScaledRaised sets r −= k·ct for an integral k (the exact constant
// that aligns ct's scale to r's), as Sub(·, MulByConstReal(ct, 1, k))
// would on the lowered ciphertext: one multiply-add by −k·P per Q limb.
// ct is read at r's level.
func (ev *Evaluator) subScaledRaised(r raisedCt, ct *Ciphertext, k float64) {
	rQ, conv := ev.params.RingQ().AtLevel(r.level), ev.params.Converter()
	k = -math.Round(k)
	for i, s := range rQ.SubRings {
		pw, ps := conv.PModQ(i)
		w := mathutil.MulModShoup(mathutil.ReduceFloat(k, s.Q), pw, ps, s.Q)
		ws := mathutil.ShoupPrecomp(w, s.Q)
		ev.mulScalarThenAddLimb(s, ct.C0.Coeffs[i], nil, w, ws, r.u.Q.Coeffs[i])
		ev.mulScalarThenAddLimb(s, ct.C1.Coeffs[i], nil, w, ws, r.v.Q.Coeffs[i])
	}
}

// lower closes r with the ModDown pair of Algorithm 3 line 4: the
// ciphertext (⌊u/P⌋, ⌊v/P⌋) at r's level and scale, in pooled output
// polynomials.
func (ev *Evaluator) lower(r raisedCt, workers int) *Ciphertext {
	out := ev.newCiphertext(r.level, r.scale)
	ev.modDownPair(r.level, r.u, r.v, out.C0, out.C1, workers)
	ev.release(r)
	return out
}

// lowerRescale closes r with the merged ModDown of MAD §3.2 (Figure 4(c)):
// one division by P·q_ℓ per half, landing one level down at scale/q_ℓ —
// the integers Rescale(lower(r)) returns, with ℓ+1 fewer NTTs per half and
// no intermediate ciphertext. r.level must be ≥ 1; the entries check it
// before any work (requireRescalable).
func (ev *Evaluator) lowerRescale(r raisedCt, workers int) *Ciphertext {
	level := r.level
	// It is a key switch's closer and a rescale.
	ev.rec.Add("ckks.keyswitch", 1)
	ev.rec.Add("ckks.rescale", 1)
	ev.rec.Add("ckks.limbs", uint64(level+1))
	conv := ev.params.Converter()
	out := ev.newCiphertext(level-1, r.scale/float64(ev.params.Q()[level]))
	conv.ModDownRescale(level, r.u, out.C0, workers)
	conv.ModDownRescale(level, r.v, out.C1, workers)
	ev.release(r)
	return out
}

func (ev *Evaluator) release(r raisedCt) {
	conv := ev.params.Converter()
	conv.PutPolyQP(r.u)
	conv.PutPolyQP(r.v)
}

// requireRescalable is the level check of every entry that ends in
// lowerRescale, made before any work is spent. The message is Rescale's,
// so Do classifies it as it does the unfused composition.
func requireRescalable(level int) {
	if level == 0 {
		panic("ckks: Rescale level (got=0, want>=1)")
	}
}

// MulRelin returns ct0·ct1, relinearized with the evaluator's
// relinearization key, without the trailing Rescale (Table 2's Mult is
// MulRelin followed by Rescale; keeping them separate lets callers batch
// additions at the doubled scale first).
func (ev *Evaluator) MulRelin(ct0, ct1 *Ciphertext) *Ciphertext {
	level := minLevel(ct0, ct1)
	sp := ev.startOp("MulRelin", level, ct0.Scale, 0)
	defer ev.endOp(sp)
	var r [1]raisedCt
	ev.mulRaised(level, []mulPair{{ct0: ct0, ct1: ct1}}, r[:])
	return ev.lower(r[0], ev.workers)
}

// Square returns ct² relinearized (no rescale): the tensor step exploits
// symmetry (d1 = 2·a0·a1), saving one of Mult's four pointwise products.
func (ev *Evaluator) Square(ct *Ciphertext) *Ciphertext {
	sp := ev.startOp("Square", ct.Level, ct.Scale, 0)
	defer ev.endOp(sp)
	var r [1]raisedCt
	ev.mulRaised(ct.Level, []mulPair{{ct0: ct, ct1: ct}}, r[:])
	return ev.lower(r[0], ev.workers)
}

// Mul is the full Table 2 Mult — tensor, relinearize, rescale — with the
// ModDown merge: bit for bit Rescale(MulRelin(ct0, ct1)).
func (ev *Evaluator) Mul(ct0, ct1 *Ciphertext) *Ciphertext {
	return ev.mulRescale([]mulPair{{ct0: ct0, ct1: ct1}})[0]
}

// DoubleAngle returns 2·ct² − 1, rescaled, for every ciphertext given:
// cos 2θ from cos θ, and T_{2i} from T_i. Each result is bit for bit
// Rescale(AddConstReal(2·MulRelin(ct, ct), −1)), the doubling and the
// constant applied to the raised pair. The ciphertexts must share a level
// above 0; they run as one batched Mult, sharing its relinearization-key
// passes (see mulRescale).
func (ev *Evaluator) DoubleAngle(cts ...*Ciphertext) []*Ciphertext {
	pairs := make([]mulPair, len(cts))
	for k, ct := range cts {
		pairs[k] = mulPair{ct0: ct, ct1: ct, middle: ev.doubleMinusOne}
	}
	return ev.mulRescale(pairs)
}

// doubleMinusOne is DoubleAngle's middle: r ← 2·r − 1.
func (ev *Evaluator) doubleMinusOne(r raisedCt) {
	ev.doubleRaised(r)
	ev.addConstRaised(r, -1)
}

// mulRescale is the merged Mult over a batch of products at one level:
// the raised products, each one's optional exact linear middle, then one
// division by P·q_ℓ per half. It runs the batch ring.MaxLanes products at
// a time, each group sharing one pass over the relinearization key and
// holding only its own products' scratch. One op span covers the batch,
// its op.fanout the product count. Every product's words and scale are
// those it has alone: the scale is productScale's.
func (ev *Evaluator) mulRescale(pairs []mulPair) []*Ciphertext {
	if len(pairs) == 0 {
		return nil
	}
	level := minLevel(pairs[0].ct0, pairs[0].ct1)
	for _, pr := range pairs[1:] {
		if l := minLevel(pr.ct0, pr.ct1); l != level {
			panic(fmt.Sprintf("ckks: Mult batch level mismatch (got=%d, want=%d)", l, level))
		}
	}
	requireRescalable(level)
	sp := ev.startOp("Mult", level, pairs[0].ct0.Scale, len(pairs))
	defer ev.endOp(sp)
	out := make([]*Ciphertext, len(pairs))
	var rs [ring.MaxLanes]raisedCt
	for c0 := 0; c0 < len(pairs); c0 += ring.MaxLanes {
		group := pairs[c0:min(c0+ring.MaxLanes, len(pairs))]
		ev.mulRaised(level, group, rs[:len(group)])
		for k, pr := range group {
			if pr.middle != nil {
				pr.middle(rs[k])
			}
			out[c0+k] = ev.lowerRescale(rs[k], ev.workers)
		}
	}
	return out
}

// productScale is the scale of the merged product of operands at scales
// s0 and s1 rescaled by q: mulRaised's raised pair carries s0·s1 and
// lowerRescale divides it by q, in that order, so a caller can know a
// product's scale, to the bit, before it runs.
func productScale(s0, s1, q float64) float64 { return s0 * s1 / q }
