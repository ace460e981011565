package ledger

import (
	"strings"
	"testing"

	"repro/internal/ckks"
	"repro/internal/simfhe"
)

func bootParams(t *testing.T) *ckks.Parameters { return bootParamsAt(t, 10) }

func bootParamsAt(t *testing.T, logN int) *ckks.Parameters {
	t.Helper()
	logQ := []int{48}
	for i := 0; i < 16; i++ {
		logQ = append(logQ, 40)
	}
	p, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: logN, LogQ: logQ, LogP: []int{50, 50, 50}, LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestForParametersInfersModelPoint(t *testing.T) {
	p := bootParams(t)
	m, err := ForParameters(p)
	if err != nil {
		t.Fatal(err)
	}
	mp := m.Ctx().P
	// 17 Q-limbs with 3 special limbs: dnum=6 is the unique digit count
	// with ceil((L+dnum)/dnum) == 3.
	if mp.L != 17 || mp.Dnum != 6 || mp.LogN != p.LogN() {
		t.Errorf("inferred %+v, want L=17 dnum=6 logN=%d", mp, p.LogN())
	}
}

// TestForParametersCoversBenchBootstrap: the frozen bootstrap workload
// runs at LogN 9; the model must cover that point, or its pred.* rows
// read 0.
func TestForParametersCoversBenchBootstrap(t *testing.T) {
	m, err := ForParameters(bootParamsAt(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	if mp := m.Ctx().P; mp.LogN != 9 || mp.L != 17 || mp.Dnum != 6 {
		t.Errorf("inferred %+v, want logN=9 L=17 dnum=6", mp)
	}
	if c, ok := m.PredictOp("Mult", 12, 0); !ok || c.Bytes == 0 {
		t.Errorf("PredictOp(Mult) at LogN 9 = %+v, %v", c, ok)
	}
}

func TestForParametersAtUsesCacheLimbs(t *testing.T) {
	m, err := ForParametersAt(bootParams(t), 12, simfhe.OptSet{CacheAlpha: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Ctx().Cache.Bytes, 12*m.Ctx().P.LimbBytes(); got != want {
		t.Errorf("cache = %d bytes, want 12 limbs = %d", got, want)
	}
	// 12 limbs hold the 2α+3 working set at α = 3: the toggle survives.
	if !m.Ctx().Opts.CacheAlpha {
		t.Errorf("opts = %+v, want CacheAlpha", m.Ctx().Opts)
	}
}

// TestKind: the span-name predicate and PredictOp share one vocabulary.
func TestKind(t *testing.T) {
	m, err := ForParameters(bootParams(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		span, kind string
		ok         bool
	}{
		{"ckks.Mult", "Mult", true},
		{"ckks.RotateHoisted", "RotateHoisted", true},
		{"ckks.LinearTransform", "", false},
		{"ckks.ks.product", "", false},
		{"bootstrap.EvalMod", "", false},
		{"Mult", "", false},
	} {
		kind, ok := Kind(tc.span)
		if kind != tc.kind || ok != tc.ok {
			t.Errorf("Kind(%q) = %q, %v; want %q, %v", tc.span, kind, ok, tc.kind, tc.ok)
		}
		if op, isOp := strings.CutPrefix(tc.span, "ckks."); isOp {
			if _, priced := m.PredictOp(op, 12, 0); priced != tc.ok {
				t.Errorf("PredictOp(%q) ok = %v, Kind says %v", op, priced, tc.ok)
			}
		}
	}
}

func TestForParametersNoDnum(t *testing.T) {
	// One special limb: ceil((L+d)/d) ≥ 2 for every d, so no dnum
	// reproduces kP=1 and the inference must fail cleanly.
	p, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 10, LogQ: []int{50, 40, 40}, LogP: []int{50}, LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ForParameters(p); err == nil {
		t.Fatal("want inference error for kP=1, got nil")
	}
}

func TestPredictOpKinds(t *testing.T) {
	m, err := ForParameters(bootParams(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := m.Ctx()
	// Mult is priced as the evaluator runs it: with the ModDown merge, once
	// per product of its batch, the batch's products sharing their key
	// passes four at a time.
	merged := ctx
	merged.Opts.ModDownMerge = true
	pass := ctx.KSKInnerProd(12, false).KeyRead
	cases := []struct {
		kind   string
		limbs  int
		fanout int
		want   uint64
	}{
		{"Mult", 12, 0, merged.Mult(12).Bytes()},
		{"Mult", 12, 1, merged.Mult(12).Bytes()},
		{"Mult", 12, 2, 2*merged.Mult(12).Bytes() - pass},
		{"Mult", 12, 4, 4*merged.Mult(12).Bytes() - 3*pass},
		{"Mult", 12, 8, 8*merged.Mult(12).Bytes() - 6*pass},
		{"MulRelin", 12, 0, ctx.MulRelin(12).Bytes()},
		{"Square", 12, 0, ctx.MulRelin(12).Bytes()},
		{"Rescale", 12, 0, ctx.RescalePoly(12).Times(2).Bytes()},
		{"KeySwitch", 12, 0, ctx.KeySwitch(12).Bytes()},
		{"Rotate", 12, 0, ctx.Rotate(12).Bytes()},
		{"Conjugate", 12, 0, ctx.Rotate(12).Bytes()},
		{"RotateHoisted", 12, 8, ctx.HoistedRotations(12, 8).Bytes()},
		{"RotateHoisted", 12, 0, ctx.HoistedRotations(12, 1).Bytes()},
	}
	for _, tc := range cases {
		c, ok := m.PredictOp(tc.kind, tc.limbs, tc.fanout)
		if !ok {
			t.Errorf("PredictOp(%q) not covered", tc.kind)
			continue
		}
		if c.Bytes != tc.want {
			t.Errorf("PredictOp(%q).Bytes = %d, want %d", tc.kind, c.Bytes, tc.want)
		}
		if c.Bytes == 0 || c.Ops == 0 {
			t.Errorf("PredictOp(%q) = %+v: zero cost", tc.kind, c)
		}
	}
}

func TestPredictOpOutOfDomain(t *testing.T) {
	m, err := ForParameters(bootParams(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind  string
		limbs int
	}{
		{"Add", 12},    // unmodeled kind
		{"Mult", 1},    // below the model's minimum level
		{"Mult", 18},   // above L
		{"Rescale", 0}, // degenerate
	} {
		if _, ok := m.PredictOp(tc.kind, tc.limbs, 0); ok {
			t.Errorf("PredictOp(%q, limbs=%d) = ok, want not covered", tc.kind, tc.limbs)
		}
	}
	var nilModel *Model
	if _, ok := nilModel.PredictOp("Mult", 12, 0); ok {
		t.Error("nil model claims coverage")
	}
}

func TestNewAtExplicitPoint(t *testing.T) {
	mp := simfhe.Params{LogN: 10, LogQ: 40, L: 12, Dnum: 4, FFTIter: 3, SineDegree: 31, DoubleAngle: 3}
	m := New(mp, simfhe.CacheConfig{Bytes: 6 * mp.LimbBytes()}, simfhe.NoOpts())
	if c, ok := m.PredictOp("Mult", 12, 0); !ok || c.Bytes == 0 {
		t.Fatalf("PredictOp at explicit point = %+v, %v", c, ok)
	}
}
