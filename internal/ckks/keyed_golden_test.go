package ckks

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/prng"
)

// keyedOpsGolden holds the SHA-256 of the serialized result of every keyed
// op below. The hashes were recorded on the commit before the rotation and
// key-switch bodies became one keyed step, and the merge was made under
// them; the linear-transform rows are per baby-step count (the n1 = 4 rows
// re-recorded when the giant groups became a Horner chain of σ_{n1} steps,
// 29.65 → 30.05 bits).
var keyedOpsGolden = map[string]string{
	"Conjugate":                              "78afc7b5ce85b76f47b9ee133a79b3837962ea37c04a0e597df244878118febc",
	"DoubleAngle":                            "6de00e0492dddb18d70d6b66c323456153c631d67f623986b6e9a885da93c7b0",
	"EvalLinearTransform/n1=4":               "8243dd5e8e33dec7377475b8f62f7bd4dcc7dfdedef66337c394f99811bf57cb",
	"EvalLinearTransform/n1=computed":        "5906fc56e84752e11dc0c9fd4efa21653a62a184110f2895b62a046c301158ac",
	"EvalLinearTransformRescale/n1=4":        "3d2184bac31426928eb9cb96de3c6679d84537c725322b0d8519d23ba9f7c2c2",
	"EvalLinearTransformRescale/n1=computed": "c440025f40af20296d0cdbad19986ef396ffb5ca5b47983725bcad2fefb17ac1",
	"InnerSum/4":                             "97ed2754235449cf6dafe12350ccf54812284d434ccc23f4c54c9150d72936d1",
	"KeySwitch":                              "f41b453ce84bc63d14e5489d0bce64dcd2b8811d8045dea21e601236af89e3d0",
	"Mul":                                    "818e279dd9172728663cac555cf3dd41b06072c0196e8e42f4db82e6f4f7793e",
	"MulByI":                                 "2be78087217a94c3cecc358c9f0b677b025fa341118012c87acaf26dc8ef33c8",
	"MulRelin":                               "aa220cf3778495dd08d6899f2d16d7c6cbd56a3438bcec1a22662fc05507ebf1",
	"Rotate/+3":                              "5525f746617742bb62df400480bbadd10010ce179ee0665608df4f3610b5fe83",
	"Rotate/-3":                              "48d9fcd28170369f32363f1de2986a12f5c8813a4cc734ea3190e4991888a4f1",
	"RotateHoisted/-3":                       "c45fc4b5dfa7d72df7f0caaf5234d6e6029fefba0e87715fa98f49b1c4a9477b",
	"RotateHoisted/0":                        "912fd00a564bfbb1c375c1dc693437a54a2f4f809220db5d5a334f98240e20c5",
	"RotateHoisted/1":                        "3684151e41992cb9131db76b1d8880ea57865458129b556deb0f914535321d9d",
	"RotateHoisted/2":                        "b9f6cc7dc79eb94ef910f26c6c270c683278d66c929966100bc87017fdf67f06",
	"Square":                                 "98653950061dbf5cff78e99f921649e576ffcdc735b68f857a22115fe2626bf2",
	"SwitchKeys":                             "e3eb0c46a905d5467e294cecc4dec3cfd61aab8d8b13e50b9cf4398167f80fea",
}

// keyedGoldenFixture holds seed-only keys for every keyed op of the grid,
// one more key to switch to, two transforms over the same diagonals
// (computed n1 and n1 = 4) and two ciphertexts, all from fixed seeds.
type keyedGoldenFixture struct {
	tc   *testContext
	keys *EvaluationKeySet
	swk  *SwitchingKey
	lts  map[string]*LinearTransform
	a, b *Ciphertext
}

func newKeyedGoldenFixture(t *testing.T) *keyedGoldenFixture {
	t.Helper()
	tc := newTestContext(t)
	p := tc.params
	rng := rand.New(rand.NewPCG(25, 1))
	values := func() []complex128 {
		v := make([]complex128, p.Slots())
		for i := range v {
			v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		return v
	}
	diags := map[int][]complex128{}
	for _, d := range []int{0, 1, 3, 9, 20} {
		diags[d] = values()
	}
	f := &keyedGoldenFixture{tc: tc, lts: map[string]*LinearTransform{
		"computed": NewLinearTransform(tc.enc, diags, p.MaxLevel(), p.Scale(), 0, false),
		"4":        NewLinearTransform(tc.enc, diags, p.MaxLevel(), p.Scale(), 4, false),
	}}
	steps := []int{1, 2, 3, -3}
	for _, n1 := range []string{"computed", "4"} {
		steps = append(steps, f.lts[n1].RotationSteps()...)
	}
	f.keys = &EvaluationKeySet{
		Rlk:    tc.kg.GenRelinearizationKey(tc.sk, true),
		Galois: tc.kg.GenGaloisKeys(steps, tc.sk),
	}
	f.keys.Rlk.DropExpanded()
	conj := tc.kg.GenConjugationKey(tc.sk, true)
	conj.DropExpanded()
	f.keys.Galois[conj.GaloisEl] = conj
	var seed [prng.SeedSize]byte
	copy(seed[:], "keyed golden: the key to switch!")
	f.swk = tc.kg.GenKeySwitchingKey(tc.sk, NewKeyGenerator(p, prng.NewSource(seed)).GenSecretKey(), true)
	f.swk.DropExpanded()
	f.a = tc.encSk.Encrypt(tc.enc.Encode(values()))
	f.b = tc.encSk.Encrypt(tc.enc.Encode(values()))
	return f
}

// keyedOps runs every keyed op on ev and returns the results by row name.
func (f *keyedGoldenFixture) keyedOps(ev *Evaluator) map[string]*Ciphertext {
	a, b := f.a, f.b
	out := map[string]*Ciphertext{
		"Rotate/+3":   ev.Rotate(a, 3),
		"Rotate/-3":   ev.Rotate(a, -3),
		"Conjugate":   ev.Conjugate(a),
		"SwitchKeys":  ev.SwitchKeys(a, f.swk),
		"InnerSum/4":  ev.InnerSum(a, 4),
		"MulByI":      ev.MulByI(a),
		"MulRelin":    ev.MulRelin(a, b),
		"Square":      ev.Square(a),
		"Mul":         ev.Mul(a, b),
		"DoubleAngle": ev.DoubleAngle(a)[0],
	}
	p0, p1 := ev.KeySwitch(a.Level, a.C1, f.swk)
	out["KeySwitch"] = &Ciphertext{C0: p0, C1: p1, Scale: a.Scale, Level: a.Level}
	for k, ct := range ev.RotateHoisted(a, []int{0, 1, 2, -3}) {
		out[fmt.Sprintf("RotateHoisted/%d", k)] = ct
	}
	for name, lt := range f.lts {
		out["EvalLinearTransform/n1="+name] = ev.EvalLinearTransform(a, lt)
		out["EvalLinearTransformRescale/n1="+name] = ev.EvalLinearTransformRescale(a, lt)
	}
	return out
}

// TestKeyedOpsGolden pins every op that runs a key switch — and MulByI,
// which reads evaluator state the copies Do hands out share — to the bytes
// it serialized to before the keyed step existed, under workers {1, 2} ×
// key budget {unlimited, one digit}: the hashes also pin bit-identity
// across every worker count and budget.
func TestKeyedOpsGolden(t *testing.T) {
	f := newKeyedGoldenFixture(t)
	p := f.tc.params
	withKernels(t, func(kernel string) {
		for _, budget := range []int64{0, digitBytes(p)} {
			for _, w := range []int{1, 2} {
				ev := NewEvaluator(p, cloneKeySet(t, f.keys), WithWorkers(w), WithKeyBudget(budget))
				got := f.keyedOps(ev)
				if len(got) != len(keyedOpsGolden) {
					t.Errorf("%s kernels budget=%d workers=%d: %d rows, golden has %d", kernel, budget, w, len(got), len(keyedOpsGolden))
				}
				for name, ct := range got {
					h := sha256.New()
					if _, err := ct.WriteTo(h); err != nil {
						t.Fatal(err)
					}
					if sum := hex.EncodeToString(h.Sum(nil)); sum != keyedOpsGolden[name] {
						t.Errorf("%s kernels budget=%d workers=%d: %q: %q, golden %q", kernel, budget, w, name, sum, keyedOpsGolden[name])
					}
				}
			}
		}
	})
}
