package simfhe

import (
	"fmt"
	"io"
)

// CostTree attributes a primitive's (or pipeline's) cost to its sub-
// operations: each node names one stage, carries the cost incurred
// directly at that stage (Self), the DRAM traffic a fusion spanning the
// node's children elides (Credit), and the child stages. The tree is the
// hierarchical form of the paper's Tables 3–4: instead of one flattened
// Cost per primitive, every ModUp, key inner product and ModDown is
// individually chargeable — the prerequisite for per-kernel memory/
// compute breakdowns à la ARK or CraterLake evaluations.
//
// The tree is the model: each composite operation is defined exactly once,
// by the builder that assembles its tree (below; the bootstrap pipeline's
// in bootstrapmodel.go), and the flat cost the rest of the simulator uses
// (Ctx.Mult, Ctx.Rotate, Ctx.Bootstrap, …) is that tree's Total(). TestCostGolden pins the resulting numbers. A Credit is
// the traffic a fusion keeps on chip, attributed to the node whose
// children the fusion spans.
type CostTree struct {
	Name     string
	Self     Cost
	Credit   Cost // DRAM round trips elided by fusions at this node
	Children []*CostTree
}

func leaf(name string, self Cost) *CostTree { return &CostTree{Name: name, Self: self} }

// Total returns the node's inclusive cost: Self plus every child's
// Total, minus the fusion Credit. Accumulation is overflow-checked, and
// a credit exceeding the gathered traffic panics — both would be
// modeling bugs, not data.
func (t *CostTree) Total() Cost {
	sum := t.Self
	for _, ch := range t.Children {
		sum = sum.PlusChecked(ch.Total())
	}
	return sum.minusChecked(t.Credit)
}

// minusChecked subtracts o element-wise, panicking on underflow.
func (c Cost) minusChecked(o Cost) Cost {
	return Cost{
		MulMod:              subChecked(c.MulMod, o.MulMod),
		AddMod:              subChecked(c.AddMod, o.AddMod),
		NTT:                 subChecked(c.NTT, o.NTT),
		CtRead:              subChecked(c.CtRead, o.CtRead),
		CtWrite:             subChecked(c.CtWrite, o.CtWrite),
		KeyRead:             subChecked(c.KeyRead, o.KeyRead),
		PtRead:              subChecked(c.PtRead, o.PtRead),
		OrientationSwitches: subChecked(c.OrientationSwitches, o.OrientationSwitches),
	}
}

func subChecked(a, b uint64) uint64 {
	if b > a {
		panic("simfhe: CostTree credit exceeds gathered cost")
	}
	return a - b
}

// Walk visits the tree depth-first, parents before children.
func (t *CostTree) Walk(fn func(node *CostTree, depth int)) {
	t.walk(fn, 0)
}

func (t *CostTree) walk(fn func(*CostTree, int), depth int) {
	fn(t, depth)
	for _, ch := range t.Children {
		ch.walk(fn, depth+1)
	}
}

// Render writes an indented text view of the tree: per node the
// inclusive Gops/GB/AI and the share of the root's DRAM traffic.
func (t *CostTree) Render(w io.Writer) {
	rootBytes := float64(t.Total().Bytes())
	t.Walk(func(n *CostTree, depth int) {
		c := n.Total()
		share := 0.0
		if rootBytes > 0 {
			share = 100 * float64(c.Bytes()) / rootBytes
		}
		fmt.Fprintf(w, "%-*s%-*s %10.4f Gops %10.4f GB %6.1f%% DRAM  AI %5.2f\n",
			2*depth, "", 28-2*depth, n.Name, c.GOps(), c.GB(), share, c.AI())
	})
}

// --- The composite operations ---

// KeySwitchTree is the full Algorithm 3 on one polynomial: Decomp, β
// ModUps, the key inner product, and a pair of ModDowns.
func (c Ctx) KeySwitchTree(l int) *CostTree {
	t := c.keySwitchTreeWithDrop(l, c.P.Alpha())
	if c.Opts.CacheO1 {
		// Decomp output → ModUp iNTT fusion: one write + one read of ℓ
		// limbs never reaches DRAM.
		t.Credit = t.Credit.Plus(c.P.writeCt(l)).Plus(c.P.readCt(l))
	}
	return t
}

// keySwitchTreeWithDrop builds the KeySwitch node with a configurable
// ModDown divisor (α, or α+1 when the caller merges the Rescale in). The
// Decomp→iNTT front-end credit is left to the caller, which may fuse more
// of its own sub-operations into that pass.
func (c Ctx) keySwitchTreeWithDrop(l, dropLimbs int) *CostTree {
	p := c.P
	dropResident := c.Opts.LimbReorder
	t := &CostTree{
		Name: "KeySwitch",
		Children: []*CostTree{
			leaf("Decomp", c.Decomp(l)),
			leaf("ModUp", c.modUpAll(l)),
			leaf("KSKInnerProd", c.KSKInnerProd(l, false)),
			leaf("ModDown", c.ModDownPoly(l, dropLimbs, dropResident).Times(2)),
		},
	}
	if dropResident {
		// The re-ordering also elides the inner product's write of the α
		// soon-to-be-dropped limbs of u and v.
		t.Credit = t.Credit.Plus(p.writeCt(2 * p.Alpha()))
	}
	return t
}

// tensorRelin is the front every ciphertext multiply shares: the tensor
// product d0 = a0·b0, d1 = a0·b1 + a1·b0, d2 = a1·b1, then the
// relinearization of d2 (Algorithm 3) with the given ModDown divisor.
func (c Ctx) tensorRelin(name string, l, dropLimbs int) *CostTree {
	p := c.P
	t := &CostTree{
		Name: name,
		Children: []*CostTree{
			leaf("Tensor", p.pointwise(l, 4, 1).Plus(p.readCt(4*l)).Plus(p.writeCt(3*l))),
			c.keySwitchTreeWithDrop(l, dropLimbs),
		},
	}
	if c.Opts.CacheO1 {
		// Fusion: tensor d2 → Decomp → iNTT (4ℓ).
		t.Credit = t.Credit.Plus(p.writeCt(2 * l)).Plus(p.readCt(2 * l))
	}
	return t
}

// MulRelinTree is the rescale-free multiply: tensor product,
// relinearization, and the recombination adds (d0 + p0, d1 + p1), leaving
// the result at the doubled scale.
func (c Ctx) MulRelinTree(l int) *CostTree {
	p := c.P
	t := c.tensorRelin("MulRelin", l, p.Alpha())
	t.Children = append(t.Children, leaf("Recombine",
		p.pointwise(2*l, 0, 1).Plus(p.readCt(4*l)).Plus(p.writeCt(2*l))))
	if c.Opts.CacheO1 {
		// Fusion: ModDown outputs → adds (4ℓ).
		t.Credit = t.Credit.Plus(p.writeCt(2 * l)).Plus(p.readCt(2 * l))
	}
	return t
}

// MultTree is the full Table 2 Mult: MulRelin followed by the Rescale of
// both halves — or, with the ModDown merge of §3.2, a single ModDown by
// P·q_ℓ per half that also performs the Rescale (Figure 4(c)).
func (c Ctx) MultTree(l int) *CostTree {
	p := c.P
	if !c.Opts.ModDownMerge {
		t := c.MulRelinTree(l)
		t.Name = "Mult"
		t.Children = append(t.Children, leaf("Rescale", c.RescalePoly(l).Times(2)))
		if c.Opts.CacheO1 {
			// Cross-op fusion: the Rescale reads the recombination adds
			// straight from cache (2ℓ), only available when the Rescale
			// immediately consumes them.
			t.Credit = t.Credit.Plus(p.writeCt(l)).Plus(p.readCt(l))
		}
		return t
	}
	t := c.tensorRelin("Mult", l, p.Alpha()+1)
	// The Add is lifted above the ModDown (PModUp of (d0, d1) costs one
	// scalar multiply per coefficient, the adds run raised) and its read
	// of d0/d1 folds into the ModDown combine pass; the separate Rescale
	// disappears.
	t.Children = append(t.Children, leaf("Recombine",
		p.pointwise(2*l, 1, 0).
			Plus(p.pointwise(2*(l+p.Alpha()), 0, 1)).
			Plus(p.readCt(2*l))))
	return t
}

// RotateTree rotates the slots by k positions (Table 2): Automorph on
// both halves, KeySwitch on the rotated c1, then the recombination add
// c0^σ + p0 on the c0 half.
func (c Ctx) RotateTree(l int) *CostTree { return c.rotateTree(l, "Rotate") }

// ConjugateTree attributes Conjugate (same model as Rotate, Table 4).
func (c Ctx) ConjugateTree(l int) *CostTree { return c.rotateTree(l, "Conjugate") }

func (c Ctx) rotateTree(l int, name string) *CostTree {
	p := c.P
	t := &CostTree{
		Name: name,
		Children: []*CostTree{
			leaf("Automorph", c.Automorph(l)),
			c.KeySwitchTree(l),
			leaf("Recombine", p.pointwise(l, 0, 1).Plus(p.readCt(2*l)).Plus(p.writeCt(l))),
		},
	}
	if c.Opts.CacheO1 {
		// Figure 1: Automorph → Decomp → iNTT on c1 fuse into one pass
		// (the KeySwitch already took the Decomp→iNTT credit; here the
		// Automorph c1 write and the Decomp read also vanish), and the
		// final add fuses with the ModDown output pass.
		t.Credit = t.Credit.Plus(p.writeCt(2 * l)).Plus(p.readCt(2 * l))
	}
	return t
}

// PtMultTree multiplies by a plaintext and rescales (Table 2 PtMult).
func (c Ctx) PtMultTree(l int) *CostTree {
	p := c.P
	t := &CostTree{
		Name: "PtMult",
		Children: []*CostTree{
			leaf("PtMul", p.pointwise(2*l, 1, 0).Plus(p.readCt(2*l)).Plus(p.readPt(l)).Plus(p.writeCt(2*l))),
			leaf("Rescale", c.RescalePoly(l).Times(2)),
		},
	}
	if c.Opts.CacheO1 {
		// Fuse the multiply with the Rescale combine pass.
		t.Credit = t.Credit.Plus(p.writeCt(2 * l)).Plus(p.readCt(2 * l))
	}
	return t
}

// OpTree returns the attribution tree of one level-charged schedule
// operation at the given limb count; RunSchedule charges its Total().
// OpBootstrap has no arm: it is priced once per run, by BootstrapTree.
func (c Ctx) OpTree(k OpKind, l int) *CostTree {
	switch k {
	case OpAdd:
		return leaf("Add", c.Add(l))
	case OpPtAdd:
		return leaf("PtAdd", c.PtAdd(l))
	case OpMult:
		return c.MultTree(l)
	case OpPtMult:
		return c.PtMultTree(l)
	case OpRotate:
		return c.RotateTree(l)
	case OpConjugate:
		return c.ConjugateTree(l)
	case OpRescale:
		return leaf("Rescale", c.RescalePoly(l).Times(2))
	default:
		panic(fmt.Sprintf("simfhe: OpTree: op kind %d is not level-charged", k))
	}
}

// MetricsSnapshot renders a cost as obs counters (for /metrics and
// -metrics-out), using the given prefix, e.g. "simfhe_mult".
func (c Cost) MetricsSnapshot(prefix string) map[string]uint64 {
	return map[string]uint64{
		prefix + "_mulmod":               c.MulMod,
		prefix + "_addmod":               c.AddMod,
		prefix + "_ntt":                  c.NTT,
		prefix + "_ct_read_bytes":        c.CtRead,
		prefix + "_ct_write_bytes":       c.CtWrite,
		prefix + "_key_read_bytes":       c.KeyRead,
		prefix + "_pt_read_bytes":        c.PtRead,
		prefix + "_orientation_switches": c.OrientationSwitches,
	}
}
