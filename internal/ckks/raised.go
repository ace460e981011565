package ckks

import (
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

// mulRaised is the one tensor core every ciphertext product shares:
// d0 = a0·b0, d1 = a0·b1 + a1·b0, d2 = a1·b1 (the same operand twice
// takes the symmetric d1 = 2·a0·a1), then the keyed step that relinearizes
// d2 with d0 as its c0, then the lift of d1 into v. All temporaries are
// pooled. The caller owns the op span; the linked children here split it
// into tensor, key product (with the lift of d0) and the lift of d1 next
// to the rns spans of the ModUp.
func (ev *Evaluator) mulRaised(ct0, ct1 *Ciphertext) raisedCt {
	if ev.keys.Rlk == nil {
		panic("ckks: relinearization key missing (got=nil, want=key)")
	}
	level := minLevel(ct0, ct1)
	ev.rec.Add("ckks.mult", 1)
	rQ := ev.params.RingQ().AtLevel(level)

	child := ev.rec.StartLinked("ckks.mult.tensor")
	d0, d1, d2 := rQ.GetScratch(), rQ.GetScratch(), rQ.GetScratch()
	for i, s := range rQ.SubRings {
		ev.tensorLimb(s, ct0, ct1, i, d0.Coeffs[i], d1.Coeffs[i], d2.Coeffs[i])
	}
	d0.IsNTT, d1.IsNTT, d2.IsNTT = true, true, true
	child.End()

	r := ev.keySwitch(level, d2, d0, &ev.keys.Rlk.SwitchingKey, ct0.Scale*ct1.Scale)

	child = ev.rec.StartLinked("ckks.mult.lift")
	ev.addLifted(level, d1, nil, r.v)
	child.End()
	rQ.PutScratch(d0)
	rQ.PutScratch(d1)
	rQ.PutScratch(d2)
	return r
}

// tensorLimb writes limb i of the tensor product in one pass: each input
// row is read once and each output row written once (Table 3's Tensor).
func (ev *Evaluator) tensorLimb(s *ring.SubRing, ct0, ct1 *Ciphertext, i int, d0, d1, d2 []uint64) {
	br, q, n := s.Barrett, s.Q, s.N
	a0, a1, b0, b1 := ct0.C0.Coeffs[i][:n], ct0.C1.Coeffs[i][:n], ct1.C0.Coeffs[i][:n], ct1.C1.Coeffs[i][:n]
	d0, d1, d2 = d0[:n], d1[:n], d2[:n]
	ev.tr.Read(a0)
	ev.tr.Read(a1)
	if ct0 == ct1 {
		for j := range d0 {
			cross := br.MulMod(a0[j], a1[j])
			d0[j], d1[j], d2[j] = br.MulMod(a0[j], a0[j]), mathutil.AddMod(cross, cross, q), br.MulMod(a1[j], a1[j])
		}
	} else {
		ev.tr.Read(b0)
		ev.tr.Read(b1)
		for j := range d0 {
			d0[j] = br.MulMod(a0[j], b0[j])
			d1[j] = mathutil.AddMod(br.MulMod(a0[j], b1[j]), br.MulMod(a1[j], b0[j]), q)
			d2[j] = br.MulMod(a1[j], b1[j])
		}
	}
	ev.tr.Write(d0)
	ev.tr.Write(d1)
	ev.tr.Write(d2)
}

// addLifted adds P·σ(x) — the PModUp lift of a Q-basis polynomial
// (Algorithm 5: one scalar multiply per coefficient, zero P limbs), read
// through the slot permutation perm (nil = identity) — into the Q limbs of
// the raised polynomial dst, in one pass and without materializing it.
func (ev *Evaluator) addLifted(level int, x *ring.Poly, perm []int, dst rns.PolyQP) {
	conv := ev.params.Converter()
	for i, s := range ev.params.RingQ().SubRings[:level+1] {
		w, ws := conv.PModQ(i)
		ev.mulScalarThenAddLimb(s, x.Coeffs[i], perm, w, ws, dst.Q.Coeffs[i])
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
		for j := range ui {
			ui[j] = mathutil.AddMod(ui[j], ci, s.Q)
		}
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
// ciphertext (⌊u/P⌋, ⌊v/P⌋) at r's level and scale, in fresh polynomials.
func (ev *Evaluator) lower(r raisedCt, workers int) *Ciphertext {
	rQ := ev.params.RingQ().AtLevel(r.level)
	out := &Ciphertext{C0: rQ.NewPoly(), C1: rQ.NewPoly(), Scale: r.scale, Level: r.level}
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
	// Per half: kP+1 iNTTs of the dropped limbs plus level forward NTTs of
	// the correction limbs. It is a key switch's closer and a rescale.
	ev.rec.Add("ckks.ntt", uint64(2*(ev.kP()+1+level)))
	ev.rec.Add("ckks.keyswitch", 1)
	ev.rec.Add("ckks.rescale", 1)
	ev.rec.Add("ckks.limbs", uint64(level+1))
	conv := ev.params.Converter()
	rQ := ev.params.RingQ().AtLevel(level - 1)
	out := &Ciphertext{
		C0:    rQ.NewPoly(),
		C1:    rQ.NewPoly(),
		Scale: r.scale / float64(ev.params.Q()[level]),
		Level: level - 1,
	}
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
	sp := ev.startOp("MulRelin", minLevel(ct0, ct1), ct0.Scale, 0)
	defer ev.endOp(sp)
	return ev.lower(ev.mulRaised(ct0, ct1), ev.workers)
}

// Square returns ct² relinearized (no rescale): the tensor step exploits
// symmetry (d1 = 2·a0·a1), saving one of Mult's four pointwise products.
func (ev *Evaluator) Square(ct *Ciphertext) *Ciphertext {
	sp := ev.startOp("Square", ct.Level, ct.Scale, 0)
	defer ev.endOp(sp)
	return ev.lower(ev.mulRaised(ct, ct), ev.workers)
}

// Mul is the full Table 2 Mult — tensor, relinearize, rescale — with the
// ModDown merge: bit for bit Rescale(MulRelin(ct0, ct1)).
func (ev *Evaluator) Mul(ct0, ct1 *Ciphertext) *Ciphertext {
	return ev.mulRescale(ct0, ct1, nil)
}

// DoubleAngle returns 2·ct² − 1, rescaled: cos 2θ from cos θ, and
// T_{2i} from T_i. Bit for bit Rescale(AddConstReal(2·MulRelin(ct, ct),
// −1)), the doubling and the constant applied to the raised pair.
func (ev *Evaluator) DoubleAngle(ct *Ciphertext) *Ciphertext {
	return ev.mulRescale(ct, ct, func(r raisedCt) {
		ev.doubleRaised(r)
		ev.addConstRaised(r, -1)
	})
}

// mulRescale is the merged Mult: the raised product, an optional exact
// linear middle applied to it, then one division by P·q_ℓ per half.
func (ev *Evaluator) mulRescale(ct0, ct1 *Ciphertext, middle func(raisedCt)) *Ciphertext {
	level := minLevel(ct0, ct1)
	requireRescalable(level)
	sp := ev.startOp("Mult", level, ct0.Scale, 0)
	defer ev.endOp(sp)
	r := ev.mulRaised(ct0, ct1)
	if middle != nil {
		middle(r)
	}
	return ev.lowerRescale(r, ev.workers)
}
