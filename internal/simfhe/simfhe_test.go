package simfhe

import (
	"math"
	"testing"
)

// within reports |got/want - 1| <= tol.
func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got/want-1) <= tol
}

func table4Ctx() Ctx {
	return NewCtx(Baseline(), MB(2), NoOpts())
}

// TestTable4 checks every primitive's compute and DRAM traffic against the
// paper's Table 4 (log N = 17, ℓ = 35, dnum = 3, 1–2 limb cache).
// Compute is derived from the same algorithms, so tolerances are tight;
// traffic follows a reconstructed streaming schedule, so they are looser.
func TestTable4(t *testing.T) {
	ctx := table4Ctx()
	l := ctx.P.L
	rows := []struct {
		name     string
		cost     Cost
		ops, gb  float64
		opsTol   float64
		bytesTol float64
	}{
		{"PtAdd", ctx.PtAdd(l), 0.0046, 0.1101, 0.02, 0.02},
		{"Add", ctx.Add(l), 0.0092, 0.2202, 0.02, 0.02},
		{"PtMult", ctx.PtMult(l), 0.2747, 0.3282, 0.10, 0.02},
		{"Decomp", ctx.Decomp(l), 0.0092, 0.0734, 0.02, 0.02},
		{"ModUp", ctx.ModUpDigit(l, ctx.P.Alpha()), 0.2847, 0.1510, 0.10, 0.05},
		{"KSKInnerProd", ctx.KSKInnerProd(l, false), 0.0629, 0.4530, 0.20, 0.25},
		{"ModDown", ctx.ModDownPoly(l, ctx.P.Alpha(), false), 0.3000, 0.1877, 0.10, 0.05},
		{"Mult", ctx.Mult(l), 1.8333, 1.9293, 0.10, 0.10},
		{"Automorph", ctx.Automorph(l), 0, 0.1468, 0, 0.02},
		{"Rotate", ctx.Rotate(l), 1.5310, 1.5645, 0.10, 0.10},
	}
	for _, r := range rows {
		if !within(r.cost.GOps(), r.ops, r.opsTol) {
			t.Errorf("%s: %.4f Gops, paper %.4f (tol %.0f%%)", r.name, r.cost.GOps(), r.ops, r.opsTol*100)
		}
		if !within(r.cost.GB(), r.gb, r.bytesTol) {
			t.Errorf("%s: %.4f GB, paper %.4f (tol %.0f%%)", r.name, r.cost.GB(), r.gb, r.bytesTol*100)
		}
	}
}

// TestTable4ArithmeticIntensity verifies the headline of §2.3: with a
// minimal cache, every Table 2 primitive has AI < 1 op/byte except the
// basis-change kernels, and the bootstrap as a whole sits below 1.
func TestTable4ArithmeticIntensity(t *testing.T) {
	ctx := table4Ctx()
	l := ctx.P.L
	for name, cost := range map[string]Cost{
		"PtAdd": ctx.PtAdd(l), "Add": ctx.Add(l), "PtMult": ctx.PtMult(l),
		"Decomp": ctx.Decomp(l), "KSKInnerProd": ctx.KSKInnerProd(l, false),
		"Mult": ctx.Mult(l), "Rotate": ctx.Rotate(l),
	} {
		if ai := cost.AI(); ai >= 1 {
			t.Errorf("%s: AI %.2f >= 1, paper reports < 1 for all primitives", name, ai)
		}
	}
	boot := ctx.Bootstrap().Total()
	if ai := boot.AI(); ai >= 1 || ai < 0.4 {
		t.Errorf("bootstrap AI %.2f outside (0.4, 1); paper reports 0.72", ai)
	}
}

// TestBootstrapBaseline pins the bootstrap aggregate against Table 4's
// last column (149.5 Gops, 208 GB) and the baseline schedule's output
// modulus log Q1 = 1080 from Table 6.
func TestBootstrapBaseline(t *testing.T) {
	bd := table4Ctx().Bootstrap()
	total := bd.Total()
	if !within(total.GOps(), 149.546, 0.15) {
		t.Errorf("bootstrap ops %.2f G, paper 149.5 (15%% tol)", total.GOps())
	}
	if !within(total.GB(), 207.982, 0.15) {
		t.Errorf("bootstrap DRAM %.2f GB, paper 208.0 (15%% tol)", total.GB())
	}
	if bd.LogQ1 != 1080 {
		t.Errorf("baseline logQ1 = %d, paper 1080", bd.LogQ1)
	}
	if bd.LevelsConsumed != 15 {
		t.Errorf("baseline levels consumed = %d, want 15", bd.LevelsConsumed)
	}
}

// TestOptimalLogQ1 pins the paper's optimal parameter schedule: Table 6
// reports log Q1 = 950 for MAD (q = 50, 19 limbs remaining).
func TestOptimalLogQ1(t *testing.T) {
	ctx := NewCtx(Optimal(), MB(32), AllOpts())
	bd := ctx.Bootstrap()
	if bd.LogQ1 != 950 {
		t.Errorf("optimal logQ1 = %d, paper 950", bd.LogQ1)
	}
}

// TestFigure2Cumulative checks the cumulative caching-optimization
// behaviour: each successive optimization strictly reduces DRAM traffic,
// compute stays exactly constant (§3.1), key reads stay exactly constant,
// and the final reduction is substantial (paper: −52%; model: −30–55%).
func TestFigure2Cumulative(t *testing.T) {
	p := Baseline()
	configs := []struct {
		name  string
		cache CacheConfig
		opts  OptSet
	}{
		{"baseline", MB(2), NoOpts()},
		{"o1", MB(2), OptSet{CacheO1: true}},
		{"beta", MB(6), OptSet{CacheO1: true, CacheBeta: true}},
		{"alpha", MB(27), OptSet{CacheO1: true, CacheBeta: true, CacheAlpha: true}},
		{"reorder", MB(27), CachingOpts()},
	}
	var prev Cost
	var base Cost
	for i, cfg := range configs {
		total := NewCtx(p, cfg.cache, cfg.opts).Bootstrap().Total()
		if i == 0 {
			base = total
			prev = total
			continue
		}
		if total.Bytes() >= prev.Bytes() {
			t.Errorf("%s: DRAM %.2f GB did not decrease from %.2f GB", cfg.name, total.GB(), prev.GB())
		}
		if total.Ops() != base.Ops() {
			t.Errorf("%s: caching optimization changed the op count (%d vs %d)", cfg.name, total.Ops(), base.Ops())
		}
		if total.KeyRead != base.KeyRead {
			t.Errorf("%s: caching optimization changed key reads", cfg.name)
		}
		prev = total
	}
	reduction := 1 - float64(prev.Bytes())/float64(base.Bytes())
	if reduction < 0.25 || reduction > 0.60 {
		t.Errorf("final caching reduction %.1f%%, expected 25–60%% (paper 52%%)", reduction*100)
	}
	// AI must improve substantially (paper: 0.72 → 1.25, a 1.7× gain).
	gain := prev.AI() / base.AI()
	if gain < 1.3 {
		t.Errorf("caching AI gain %.2fx, paper reports ~1.7x", gain)
	}
}

// TestFigure3Algorithmic checks the cumulative algorithmic-optimization
// behaviour at the best-case parameters with all caching on (§3.2):
//   - ModDown merge cuts compute by a few percent, traffic ~unchanged;
//   - ModDown hoisting cuts compute by tens of percent and ciphertext
//     traffic substantially while increasing key reads ~25%;
//   - key compression halves the key reads and changes nothing else.
func TestFigure3Algorithmic(t *testing.T) {
	p := Optimal()
	cache := MB(32)

	caching := NewCtx(p, cache, CachingOpts()).Bootstrap().Total()

	withMerge := CachingOpts()
	withMerge.ModDownMerge = true
	merge := NewCtx(p, cache, withMerge).Bootstrap().Total()

	withHoist := withMerge
	withHoist.ModDownHoist = true
	hoist := NewCtx(p, cache, withHoist).Bootstrap().Total()

	all := withHoist
	all.KeyCompression = true
	final := NewCtx(p, cache, all).Bootstrap().Total()

	// Merge: compute down 2–10% (paper 6%), DRAM within 3%.
	mergeOps := 1 - float64(merge.Ops())/float64(caching.Ops())
	if mergeOps < 0.02 || mergeOps > 0.10 {
		t.Errorf("ModDown merge compute cut %.1f%%, paper ~6%%", mergeOps*100)
	}
	if !within(float64(merge.Bytes()), float64(caching.Bytes()), 0.03) {
		t.Errorf("ModDown merge moved DRAM by more than 3%%")
	}

	// Hoisting: compute down 25–55% (paper 34%), ciphertext traffic down
	// ≥ 15% (paper 19%), key reads up 10–40% (paper 25%).
	hoistOps := 1 - float64(hoist.Ops())/float64(merge.Ops())
	if hoistOps < 0.25 || hoistOps > 0.55 {
		t.Errorf("hoisting compute cut %.1f%%, paper ~34%%", hoistOps*100)
	}
	ctBefore := merge.CtRead + merge.CtWrite
	ctAfter := hoist.CtRead + hoist.CtWrite
	if ctCut := 1 - float64(ctAfter)/float64(ctBefore); ctCut < 0.15 {
		t.Errorf("hoisting ciphertext-traffic cut %.1f%%, paper ~19%%", ctCut*100)
	}
	keyUp := float64(hoist.KeyRead)/float64(merge.KeyRead) - 1
	if keyUp < 0.10 || keyUp > 0.40 {
		t.Errorf("hoisting key-read increase %.1f%%, paper ~25%%", keyUp*100)
	}

	// Key compression: key reads cut 40–50%, everything else identical.
	keyCut := 1 - float64(final.KeyRead)/float64(hoist.KeyRead)
	if keyCut < 0.40 || keyCut > 0.55 {
		t.Errorf("key compression key cut %.1f%%, paper 50%%", keyCut*100)
	}
	if final.CtRead != hoist.CtRead || final.CtWrite != hoist.CtWrite {
		t.Error("key compression changed ciphertext traffic")
	}

	// Net effect: the full MAD stack must improve bootstrap AI over the
	// baseline benchmark (paper: 3×; this reconstruction: ≥ 1.3×).
	base := table4Ctx().Bootstrap().Total()
	if gain := final.AI() / base.AI(); gain < 1.3 {
		t.Errorf("end-to-end AI gain %.2fx, want ≥ 1.3x (paper 3x)", gain)
	}
}

// TestOrientationSwitchesDropWithHoisting: §3.2 reports the PtMatVecMult
// orientation switches dropping from 44 (baseline, one per baby and giant
// step) to fftIter·3 with hoisting (one ModUp plus two ModDowns per
// stage). The claim is per matrix product, so measure one.
func TestOrientationSwitchesDropWithHoisting(t *testing.T) {
	p := Optimal()
	noHoist := CachingOpts()
	withHoist := CachingOpts()
	withHoist.ModDownHoist = true
	a := NewCtx(p, MB(32), noHoist).PtMatVecMult(p.L, 15).OrientationSwitches
	b := NewCtx(p, MB(32), withHoist).PtMatVecMult(p.L, 15).OrientationSwitches
	if b*2 >= a {
		t.Errorf("hoisting left %d of %d orientation switches per PtMatVecMult; expected under half", b, a)
	}
	// The hoisted stage must be within a small constant of the paper's
	// "one ModUp and two ModDowns": β switches from the per-digit ModUps
	// plus 2 from the ModDowns.
	if want := uint64(p.Beta(p.L) + 2); b > want+2 {
		t.Errorf("hoisted PtMatVecMult has %d switches, want ≈ %d", b, want)
	}
}

func TestEffectiveOpts(t *testing.T) {
	p := Baseline() // α = 12 → O(α) needs 27 limbs ≈ 27 MB at N = 2^17
	tiny := OptSet{CacheO1: true, CacheBeta: true, CacheAlpha: true, LimbReorder: true}

	eff := tiny.Effective(p, MB(1))
	if !eff.CacheO1 || eff.CacheBeta || eff.CacheAlpha || eff.LimbReorder {
		t.Errorf("1 MB should support only O(1): %+v", eff)
	}
	eff = tiny.Effective(p, MB(6))
	if !eff.CacheBeta || eff.CacheAlpha {
		t.Errorf("6 MB should add O(β) but not O(α): %+v", eff)
	}
	eff = tiny.Effective(p, MB(32))
	if !eff.CacheAlpha || !eff.LimbReorder {
		t.Errorf("32 MB should support everything: %+v", eff)
	}
	// Reordering depends on the O(α) working set.
	justReorder := OptSet{LimbReorder: true}
	if e := justReorder.Effective(p, MB(32)); e.LimbReorder {
		t.Error("limb re-ordering without O(α) should be filtered out")
	}
}

func TestParamsDerived(t *testing.T) {
	p := Baseline()
	if p.Alpha() != 12 {
		t.Errorf("alpha = %d, paper 12", p.Alpha())
	}
	if p.Beta(p.L) != 3 {
		t.Errorf("beta = %d, paper 3", p.Beta(p.L))
	}
	// "An example of secure parameters … gives a total ciphertext size of
	// ~73.4 MB" (§2.2).
	if mb := float64(p.CiphertextBytes()) / 1e6; !within(mb, 73.4, 0.01) {
		t.Errorf("ciphertext size %.1f MB, paper ~73.4 MB", mb)
	}
	po := Optimal()
	if po.Alpha() != 21 {
		t.Errorf("optimal alpha = %d, want 21", po.Alpha())
	}
	if !p.IsSecure() || !po.IsSecure() {
		t.Error("paper parameter sets must pass the 128-bit security check")
	}
}

func TestParamsValidate(t *testing.T) {
	good := Baseline()
	if err := good.Validate(); err != nil {
		t.Errorf("baseline params invalid: %v", err)
	}
	bad := []Params{
		{LogN: 5, LogQ: 54, L: 35, Dnum: 3, FFTIter: 3},
		{LogN: 17, LogQ: 99, L: 35, Dnum: 3, FFTIter: 3},
		{LogN: 17, LogQ: 54, L: 1, Dnum: 3, FFTIter: 3},
		{LogN: 17, LogQ: 54, L: 35, Dnum: 0, FFTIter: 3},
		{LogN: 17, LogQ: 54, L: 35, Dnum: 3, FFTIter: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %v", i, p)
		}
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{MulMod: 1, AddMod: 2, CtRead: 3, CtWrite: 4, KeyRead: 5, PtRead: 6, NTT: 7, OrientationSwitches: 8}
	b := a.Plus(a)
	if b.MulMod != 2 || b.PtRead != 12 || b.OrientationSwitches != 16 {
		t.Errorf("Plus broken: %+v", b)
	}
	c := a.Times(3)
	if c.AddMod != 6 || c.KeyRead != 15 {
		t.Errorf("Times broken: %+v", c)
	}
	if a.Ops() != 3 || a.Bytes() != 18 {
		t.Errorf("Ops/Bytes broken: %d %d", a.Ops(), a.Bytes())
	}
	if ai := a.AI(); !within(ai, 3.0/18.0, 1e-12) {
		t.Errorf("AI = %v", ai)
	}
	if (Cost{}).AI() != 0 {
		t.Error("zero cost AI should be 0")
	}
}

func TestKeyCompressionHalvesKeySize(t *testing.T) {
	p := Baseline()
	if p.SwitchingKeyBytes(true)*2 != p.SwitchingKeyBytes(false) {
		t.Error("compressed key is not half the size")
	}
}

func TestRotateO1SavingsMatchFigure1(t *testing.T) {
	// Figure 1: the fused Automorph→Decomp→iNTT pass on the c1 half saves
	// 140 limb transfers for a 35-limb ciphertext (105+105 → 35+35 in the
	// fused region). Our Rotate additionally fuses the final add, so the
	// saving must be at least 140 limbs and at most ~8ℓ.
	p := Baseline()
	naive := NewCtx(p, MB(2), NoOpts()).Rotate(p.L)
	fused := NewCtx(p, MB(2), OptSet{CacheO1: true}).Rotate(p.L)
	savedLimbs := (naive.Bytes() - fused.Bytes()) / p.LimbBytes()
	if savedLimbs < 140 || savedLimbs > 8*uint64(p.L) {
		t.Errorf("O(1) Rotate saves %d limb transfers; Figure 1 implies ≥ 140", savedLimbs)
	}
}

func TestDFTDiagonals(t *testing.T) {
	p := Baseline() // logn = 16, fftIter = 3 → stage radices 2^5, 2^5(?), …
	d := p.DFTDiagonals()
	if len(d) != 3 {
		t.Fatalf("got %d stages, want 3", len(d))
	}
	total := 0
	for _, x := range d {
		if x < 1 {
			t.Errorf("stage with %d diagonals", x)
		}
		total += x
	}
	// The factorization must cover all logn butterfly levels: the product
	// of stage radices equals n.
	prod := 1
	for _, x := range d {
		prod *= (x + 1) / 2
	}
	if prod != p.Slots() {
		t.Errorf("stage radix product %d != n = %d", prod, p.Slots())
	}
}

func TestBSGSSplit(t *testing.T) {
	ctx := NewCtx(Baseline(), MB(2), NoOpts())
	for _, d := range []int{1, 2, 15, 63, 127} {
		n1, n2 := ctx.bsgsSplit(d)
		if n1 < 1 || n2 < 1 || n1*n2 < d {
			t.Errorf("d=%d: bad split (%d, %d)", d, n1, n2)
		}
	}
	// Hoisting widens the baby step.
	hoistCtx := NewCtx(Baseline(), MB(32), OptSet{ModDownHoist: true})
	n1h, _ := hoistCtx.bsgsSplit(63)
	n1b, _ := ctx.bsgsSplit(63)
	if n1h <= n1b {
		t.Errorf("hoisted n1 %d not larger than baseline %d", n1h, n1b)
	}
}

// TestHoistedRotationsCheaperThanSeparate: sharing one Decomp+ModUp across
// r rotations (the standard hoisting of §3.2) must beat r full Rotates on
// both compute and DRAM, and the advantage must grow with r.
func TestHoistedRotationsCheaperThanSeparate(t *testing.T) {
	ctx := NewCtx(Baseline(), MB(27), CachingOpts())
	l := ctx.P.L
	prevSaving := 0.0
	for _, r := range []int{2, 4, 8, 16} {
		hoisted := ctx.HoistedRotations(l, r)
		separate := ctx.Rotate(l).Times(r)
		if hoisted.Ops() >= separate.Ops() {
			t.Errorf("r=%d: hoisted ops %d not below %d", r, hoisted.Ops(), separate.Ops())
		}
		if hoisted.Bytes() >= separate.Bytes() {
			t.Errorf("r=%d: hoisted DRAM %d not below %d", r, hoisted.Bytes(), separate.Bytes())
		}
		saving := 1 - float64(hoisted.Ops())/float64(separate.Ops())
		if saving <= prevSaving {
			t.Errorf("r=%d: compute saving %.3f did not grow from %.3f", r, saving, prevSaving)
		}
		prevSaving = saving
	}
}

// TestSparseSlotBootstrapping covers §4.3's sparse packing: fewer slots
// shrink the homomorphic DFTs (cheaper bootstrap in absolute terms) at
// the price of a SubSum ladder, and the slot count feeds Eq. 3 through
// Params.Slots.
func TestSparseSlotBootstrapping(t *testing.T) {
	full := Optimal()
	sparse := Optimal()
	sparse.LogSlots = 12 // 2^12 of the 2^16 slots
	if err := sparse.Validate(); err != nil {
		t.Fatal(err)
	}
	if sparse.Slots() != 1<<12 || full.Slots() != 1<<16 {
		t.Fatalf("slot counts wrong: %d, %d", sparse.Slots(), full.Slots())
	}
	if sparse.SubSumRotations() != 4 || full.SubSumRotations() != 0 {
		t.Fatalf("SubSum rotations wrong: %d, %d", sparse.SubSumRotations(), full.SubSumRotations())
	}

	fullCost := NewCtx(full, MB(32), AllOpts()).Bootstrap()
	sparseCost := NewCtx(sparse, MB(32), AllOpts()).Bootstrap()
	if sparseCost.Total().Bytes() >= fullCost.Total().Bytes() {
		t.Error("sparse bootstrapping should move less data than fully packed")
	}
	// Compute roughly washes: the smaller DFTs buy back what the SubSum
	// ladder spends, while EvalMod (the compute bulk) is slot-independent.
	if float64(sparseCost.Total().Ops()) > 1.10*float64(fullCost.Total().Ops()) {
		t.Error("sparse bootstrapping compute more than 10% above fully packed")
	}
	// Per-slot, full packing wins — the reason Table 6 uses it.
	perSlotFull := float64(fullCost.Total().Bytes()) / float64(full.Slots())
	perSlotSparse := float64(sparseCost.Total().Bytes()) / float64(sparse.Slots())
	if perSlotSparse <= perSlotFull {
		t.Error("per-slot cost should favor full packing")
	}
	// The level schedule is unchanged (SubSum costs no levels here).
	if sparseCost.LogQ1 != fullCost.LogQ1 {
		t.Errorf("sparse logQ1 %d != full %d", sparseCost.LogQ1, fullCost.LogQ1)
	}
}

func TestSparseSlotValidation(t *testing.T) {
	p := Optimal()
	p.LogSlots = 3 // below the floor
	if p.Validate() == nil {
		t.Error("LogSlots=3 should fail validation")
	}
	p.LogSlots = 17 // above N/2
	if p.Validate() == nil {
		t.Error("LogSlots=logN should fail validation")
	}
	p.LogSlots = 5
	p.FFTIter = 6 // more stages than butterfly levels
	if p.Validate() == nil {
		t.Error("FFTIter > logSlots should fail validation")
	}
}

// TestNTTPolyOneDRAMPass pins the one NTT pricing rule: each transform
// reads and writes every limb once, at any ring degree and cache size.
func TestNTTPolyOneDRAMPass(t *testing.T) {
	for _, logN := range []int{10, 13} {
		p := Baseline()
		p.LogN = logN
		for _, mb := range []int{0, 32} {
			c := NewCtx(p, MB(mb), NoOpts())
			for _, l := range []int{1, 12} {
				want := p.nttLimb().Times(l)
				want.CtRead = uint64(l) * p.LimbBytes()
				want.CtWrite = uint64(l) * p.LimbBytes()
				if got := c.NTTPoly(l); got != want {
					t.Errorf("logN=%d %dMB l=%d: NTTPoly = %+v, want %+v", logN, mb, l, got, want)
				}
			}
		}
	}
}

// TestMulRelinComposesToMult pins the MulRelin extraction: across opt
// sets (merge excluded — the merged ModDown is inseparable) and levels,
// Mult must equal MulRelin + 2×RescalePoly up to the documented CacheO1
// cross-op fusion credit.
func TestMulRelinComposesToMult(t *testing.T) {
	p := Baseline()
	for _, tc := range []struct {
		name string
		opts OptSet
	}{
		{"no_opts", NoOpts()},
		{"caching", CachingOpts()},
	} {
		c := NewCtx(p, MB(2), tc.opts)
		if c.Opts.ModDownMerge {
			t.Fatalf("%s: opt set unexpectedly enables ModDownMerge", tc.name)
		}
		for _, l := range []int{2, 8, p.L} {
			want := c.MulRelin(l).Plus(c.RescalePoly(l).Times(2))
			if c.Opts.CacheO1 {
				want = want.minusCtWrite(p, l).minusCtRead(p, l)
			}
			if got := c.Mult(l); got != want {
				t.Errorf("%s l=%d: Mult=%+v, MulRelin+2*Rescale=%+v", tc.name, l, got, want)
			}
		}
	}
}
