package ckks

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/mathutil"
	"repro/internal/ring"
	"repro/internal/rns"
)

// strictKskInnerProduct is the composition kskInnerProduct replaces, kept
// as its oracle: take each digit out of the Montgomery form ModUpDigit
// writes, materialize every rotated digit, then one fully reduced
// MulCoeffsThenAdd per digit and key half into zeroed accumulators. swk
// must have its a halves in place.
func strictKskInnerProduct(p *Parameters, level int, digits []rns.PolyQP, g uint64, swk *SwitchingKey) (u, v rns.PolyQP) {
	rQ, rP, conv := p.RingQ().AtLevel(level), p.RingP(), p.Converter()
	u, v = conv.NewPolyQP(level), conv.NewPolyQP(level)
	for j, d := range digits {
		d = rns.PolyQP{Q: fromMForm(rQ, d.Q), P: fromMForm(rP, d.P)}
		if g != 1 {
			rot := conv.NewPolyQP(level)
			rQ.AutomorphismNTT(d.Q, g, rot.Q)
			rP.AutomorphismNTT(d.P, g, rot.P)
			d = rot
		}
		key := swk.Digits[j]
		rQ.MulCoeffsThenAdd(key.B.Q, d.Q, u.Q)
		rP.MulCoeffsThenAdd(key.B.P, d.P, u.P)
		rQ.MulCoeffsThenAdd(key.A.Q, d.Q, v.Q)
		rP.MulCoeffsThenAdd(key.A.P, d.P, v.P)
	}
	return u, v
}

// fromMForm returns a copy of x with every word x·R⁻¹ mod q_i, R = 2^64:
// the canonical polynomial behind one in Montgomery form.
func fromMForm(r *ring.Ring, x *ring.Poly) *ring.Poly {
	out := x.CopyNew()
	for i, q := range r.Moduli {
		qNeg := mathutil.MontQNeg(q)
		for c, w := range out.Coeffs[i] {
			out.Coeffs[i][c] = mathutil.MontReduce(0, w, q, qNeg)
		}
	}
	return out
}

// TestKskInnerProductMatchesStrict pins the single inner-product body to
// the strict per-digit composition, bit for bit: at the top level and at a
// level whose last digit is partial, for the identity and for Galois
// gathers, for keys with their a halves in place and seed-only keys served
// by the vault, under every worker count. The destinations come from the
// pool unzeroed, as the callers hand them over.
func TestKskInnerProductMatchesStrict(t *testing.T) {
	tc := newTestContext(t)
	p := tc.params
	conv := p.Converter()
	swk := tc.kg.GenKeySwitchingKey(tc.sk, tc.kg.GenSecretKey(), true)
	seedOnly := cloneSeedOnly(t, swk)
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(p.Slots(), 1)))

	galois := []uint64{1, p.RingQ().GaloisElement(1), p.RingQ().GaloisElement(-3), p.RingQ().GaloisElementConjugate()}
	for _, level := range []int{p.MaxLevel(), p.MaxLevel() - 2} {
		ev := NewEvaluator(p, nil)
		digits := ev.decomposeModUp(level, ev.DropLevel(ct, level).C1, 1)
		for _, g := range galois {
			wantU, wantV := strictKskInnerProduct(p, level, digits, g, swk)
			var perm []int
			if g != 1 {
				perm = p.RingQ().AutomorphismNTTIndex(g)
			}
			for name, key := range map[string]*SwitchingKey{"expanded": swk, "seed-only": seedOnly} {
				for _, w := range evalWorkerCounts() {
					u, v := conv.GetPolyQP(level), conv.GetPolyQP(level)
					u.Q.Coeffs[0][0], v.P.Coeffs[0][0] = ^uint64(0), ^uint64(0) // stale scratch
					ev.kskInnerProduct(level, digits, perm, key, u, v, w)
					if !u.Q.Equal(wantU.Q) || !u.P.Equal(wantU.P) || !v.Q.Equal(wantV.Q) || !v.P.Equal(wantV.P) {
						t.Errorf("level=%d galois=%d key=%s workers=%d: fused inner product differs from the strict composition", level, g, name, w)
					}
					conv.PutPolyQP(u)
					conv.PutPolyQP(v)
				}
			}
		}
		ev.putDigits(digits)
	}
}

// hoistedBudgetCase is one hoisted transform plus the mixed vault
// workload, folded into one ciphertext.
func hoistedBudgetCase(ev *Evaluator, ct *Ciphertext, lt *LinearTransform, steps []int) *Ciphertext {
	out := ev.EvalLinearTransformHoistedModDown(ct, lt)
	mixed := vaultWorkload(ev, ct, steps)
	rQ := ev.params.RingQ().AtLevel(out.Level)
	rQ.Add(out.C0, mixed.C0, out.C0)
	rQ.Add(out.C1, mixed.C1, out.C1)
	return out
}

// TestHoistedTransformGoldenAcrossBudgets runs a linear transform (n1 = 4:
// three keyed baby steps, two keyed giant steps) over seed-only keys (and
// the mixed rotation / relinearization / ladder workload after it) under
// budgets {unlimited, a quarter of the transform's keys, one byte} × every
// worker count and demands the ciphertext of the fully materialized
// baseline, bit for bit. Under the quarter budget it also asserts what
// holding a key only for its product buys: the resident set peaks at the
// budget plus the digits the products in flight hold — not at the whole
// fan-out, which is where pinning the sweep put it (4× the budget).
func TestHoistedTransformGoldenAcrossBudgets(t *testing.T) {
	tc := newTestContext(t)
	p := tc.params
	diagIdx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	steps := []int{1, 2, 3, 4}
	lt := NewLinearTransform(tc.enc, DiagsFromMatrix(randomBandedMatrix(p.Slots(), diagIdx)), p.MaxLevel(), p.Scale(), 4, true)
	keys := &EvaluationKeySet{
		Rlk:    tc.kg.GenRelinearizationKey(tc.sk, true),
		Galois: tc.kg.GenGaloisKeys(lt.RotationSteps(), tc.sk),
	}
	keys.Rlk.DropExpanded()
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(p.Slots(), 1)))

	expanded := cloneKeySet(t, keys)
	expandKeySet(p, expanded)
	ref := hoistedBudgetCase(NewEvaluator(p, expanded), ct, lt, steps)

	db, beta := digitBytes(p), int64(p.Beta(ct.Level))
	quarter := int64(len(keys.Galois)) * beta * db / 4
	for name, budget := range map[string]int64{"unlimited": 0, "quarter": quarter, "one-byte": 1} {
		for _, w := range evalWorkerCounts() {
			ev := NewEvaluator(p, cloneKeySet(t, keys), WithWorkers(w), WithKeyBudget(budget))
			if out := hoistedBudgetCase(ev, ct, lt, steps); !ctEqual(out, ref) {
				t.Errorf("budget=%s workers=%d: output differs from the fully materialized baseline", name, w)
			}
			if name == "quarter" {
				if st, bound := ev.KeyVaultStats(), quarter+int64(w)*beta*db; st.PeakResident > bound {
					t.Errorf("workers=%d: peak resident %d bytes, want <= budget + workers·β digits = %d", w, st.PeakResident, bound)
				}
			}
		}
	}
}

// TestKeyVaultConcurrentReuseRace hammers one vault whose budget holds a
// single digit from concurrent SwitchKeys and RotateHoisted calls: every
// miss competes for evicted buffers while other products hold theirs. A
// buffer handed to an expansion while a product still reads it is a data
// race (this test runs under -race in CI) and, race detector or not, a
// wrong ciphertext.
func TestKeyVaultConcurrentReuseRace(t *testing.T) {
	steps := []int{1, 2, 3}
	tc, keys, ct := vaultTestKeys(t, steps)
	swk := tc.kg.GenKeySwitchingKey(tc.sk, tc.kg.GenSecretKey(), true)
	swk.DropExpanded()

	refEv := NewEvaluator(tc.params, cloneKeySet(t, keys))
	refSwitch := refEv.SwitchKeys(ct, swk)
	refRots := refEv.RotateHoisted(ct, steps)

	ev := NewEvaluator(tc.params, keys, WithKeyBudget(digitBytes(tc.params)))
	const goroutines, rounds = 4, 6
	var wg sync.WaitGroup
	errs := make(chan string, 2*goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if out := ev.SwitchKeys(ct, swk); !ctEqual(out, refSwitch) {
					errs <- fmt.Sprintf("round %d: SwitchKeys differs from the serial reference", r)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rots := ev.RotateHoisted(ct, steps)
				for _, k := range steps {
					if !ctEqual(rots[k], refRots[k]) {
						errs <- fmt.Sprintf("round %d: RotateHoisted step %d differs from the serial reference", r, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if st := ev.KeyVaultStats(); st.ResidentBytes > digitBytes(tc.params) {
		t.Errorf("resident %d bytes with nothing held, want <= the one-digit budget", st.ResidentBytes)
	}
}

// benchHoistedContext builds the matvec_hoisted shape of the benchmark
// (N = 2^12, 6 + 2 limbs, β = 3) with a diagonals-wide hoisted transform
// over seed-only Galois keys.
func benchHoistedContext(b testing.TB, diagonals int) (*Parameters, *EvaluationKeySet, *LinearTransform, *Ciphertext) {
	p, err := NewParameters(ParametersLiteral{LogN: 12, LogQ: []int{50, 40, 40, 40, 40, 40}, LogP: []int{50, 50}, LogScale: 40})
	if err != nil {
		b.Fatal(err)
	}
	src := testSource()
	kg := NewKeyGenerator(p, src)
	sk := kg.GenSecretKey()
	enc := NewEncoder(p)
	diags := make(map[int][]complex128, diagonals)
	for d := 1; d <= diagonals; d++ {
		diags[d] = randomValues(p.Slots(), 0.125)
	}
	lt := NewLinearTransform(enc, diags, p.MaxLevel(), p.Scale(), 0, true)
	keys := &EvaluationKeySet{Galois: kg.GenGaloisKeys(lt.RotationSteps(), sk)}
	ct := NewSecretKeyEncryptor(p, sk, src).Encrypt(enc.Encode(randomValues(p.Slots(), 1)))
	return p, keys, lt, ct
}

// BenchmarkKeySwitchInnerProduct times Algorithm 3 line 3 alone at
// N = 2^12, β = 3 on a resident key: the plain product and the hoisted
// step's product, which gathers the digits through a Galois permutation.
func BenchmarkKeySwitchInnerProduct(b *testing.B) {
	p, keys, _, ct := benchHoistedContext(b, 1)
	g := p.RingQ().GaloisElement(1)
	gk := keys.Galois[g]
	gk.ExpandAll(p)
	ev := NewEvaluator(p, keys)
	level := ct.Level
	digits := ev.decomposeModUp(level, ct.C1, 1)
	u, v := p.Converter().GetPolyQP(level), p.Converter().GetPolyQP(level)
	for _, c := range []struct {
		name string
		perm []int
	}{{"identity", nil}, {"galois", p.RingQ().AutomorphismNTTIndex(g)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev.kskInnerProduct(level, digits, c.perm, &gk.SwitchingKey, u, v, 1)
			}
		})
	}
}

// BenchmarkHoistedTransformThrash times a 16-diagonal hoisted-ModDown
// transform whose key budget holds a quarter of its keys, so every digit
// of every op is expanded from its seed into an evicted digit's buffer.
// allocs/op and B/op are the point: they must not scale with the keys.
func BenchmarkHoistedTransformThrash(b *testing.B) {
	const diagonals = 16
	p, keys, lt, ct := benchHoistedContext(b, diagonals)
	quarter := int64(diagonals) * int64(p.Dnum()) * digitBytes(p) / 4
	ev := NewEvaluator(p, keys, WithKeyBudget(quarter))
	ev.EvalLinearTransformHoistedModDown(ct, lt) // fill the budget
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvalLinearTransformHoistedModDown(ct, lt)
	}
}
