package ckks

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"repro/internal/prng"
)

// testParams returns a small (insecure, test-only) parameter set:
// N = 2^10, a 5-limb Q chain and 2 special primes (dnum = 3 digits).
func testParams(t testing.TB) *Parameters {
	t.Helper()
	p, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{45, 40, 40, 40, 40},
		LogP:     []int{45, 45},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testSource() *prng.Source {
	var seed [prng.SeedSize]byte
	copy(seed[:], "ckks deterministic test fixture!")
	return prng.NewSource(seed)
}

// testContext bundles the common objects.
type testContext struct {
	params *Parameters
	enc    *Encoder
	kg     *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	encPk  *Encryptor
	encSk  *Encryptor
	dec    *Decryptor
}

func newTestContext(t testing.TB) *testContext {
	params := testParams(t)
	src := testSource()
	kg := NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return &testContext{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg,
		sk:     sk,
		pk:     pk,
		encPk:  NewEncryptor(params, pk, src),
		encSk:  NewSecretKeyEncryptor(params, sk, src),
		dec:    NewDecryptor(params, sk),
	}
}

func randomValues(n int, bound float64) []complex128 {
	vals := make([]complex128, n)
	for i := range vals {
		vals[i] = complex((rand.Float64()*2-1)*bound, (rand.Float64()*2-1)*bound)
	}
	return vals
}

// maxErr returns the max absolute slot-wise difference.
func maxErr(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tc := newTestContext(t)
	vals := randomValues(tc.params.Slots(), 1)
	pt := tc.enc.Encode(vals)
	got := tc.enc.Decode(pt)
	if err := maxErr(vals, got); err > 1e-9 {
		t.Errorf("encode/decode error %.3g too large", err)
	}
}

func TestEncodeDecodePartialVector(t *testing.T) {
	tc := newTestContext(t)
	vals := randomValues(7, 3)
	pt := tc.enc.Encode(vals)
	got := tc.enc.Decode(pt)
	if err := maxErr(vals, got[:7]); err > 1e-9 {
		t.Errorf("error %.3g", err)
	}
	for _, v := range got[7:] {
		if cmplx.Abs(v) > 1e-9 {
			t.Fatalf("padding slot not ~zero: %v", v)
		}
	}
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t)
	vals := randomValues(tc.params.Slots(), 1)
	for name, enc := range map[string]*Encryptor{"pk": tc.encPk, "sk": tc.encSk} {
		ct := enc.Encrypt(tc.enc.Encode(vals))
		got := tc.enc.Decode(tc.dec.DecryptToPlaintext(ct))
		if err := maxErr(vals, got); err > 1e-6 {
			t.Errorf("%s: decryption error %.3g too large", name, err)
		}
	}
}

func TestAddSubNeg(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil)
	n := tc.params.Slots()
	a := randomValues(n, 1)
	b := randomValues(n, 1)
	cta := tc.encSk.Encrypt(tc.enc.Encode(a))
	ctb := tc.encSk.Encrypt(tc.enc.Encode(b))

	want := make([]complex128, n)
	for i := range want {
		want[i] = a[i] + b[i]
	}
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(ev.Add(cta, ctb)))
	if err := maxErr(want, got); err > 1e-6 {
		t.Errorf("Add error %.3g", err)
	}

	for i := range want {
		want[i] = a[i] - b[i]
	}
	got = tc.enc.Decode(tc.dec.DecryptToPlaintext(ev.Sub(cta, ctb)))
	if err := maxErr(want, got); err > 1e-6 {
		t.Errorf("Sub error %.3g", err)
	}

	for i := range want {
		want[i] = -a[i]
	}
	got = tc.enc.Decode(tc.dec.DecryptToPlaintext(ev.Neg(cta)))
	if err := maxErr(want, got); err > 1e-6 {
		t.Errorf("Neg error %.3g", err)
	}
}

func TestAddSubPlain(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil)
	n := tc.params.Slots()
	a := randomValues(n, 1)
	b := randomValues(n, 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(a))
	pt := tc.enc.Encode(b)

	want := make([]complex128, n)
	for i := range want {
		want[i] = a[i] + b[i]
	}
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(ev.AddPlain(ct, pt)))
	if err := maxErr(want, got); err > 1e-6 {
		t.Errorf("AddPlain error %.3g", err)
	}
	for i := range want {
		want[i] = a[i] - b[i]
	}
	got = tc.enc.Decode(tc.dec.DecryptToPlaintext(ev.SubPlain(ct, pt)))
	if err := maxErr(want, got); err > 1e-6 {
		t.Errorf("SubPlain error %.3g", err)
	}
}

func TestMulPlainRescale(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil)
	n := tc.params.Slots()
	a := randomValues(n, 1)
	b := randomValues(n, 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(a))
	pt := tc.enc.Encode(b)

	out := ev.MulPlainRescale(ct, pt)
	if out.Level != ct.Level-1 {
		t.Errorf("level after PtMult = %d, want %d", out.Level, ct.Level-1)
	}
	want := make([]complex128, n)
	for i := range want {
		want[i] = a[i] * b[i]
	}
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(out))
	if err := maxErr(want, got); err > 1e-5 {
		t.Errorf("PtMult error %.3g", err)
	}
}

func TestMulRelinRescale(t *testing.T) {
	tc := newTestContext(t)
	rlk := tc.kg.GenRelinearizationKey(tc.sk, false)
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Rlk: rlk})
	n := tc.params.Slots()
	a := randomValues(n, 1)
	b := randomValues(n, 1)
	cta := tc.encSk.Encrypt(tc.enc.Encode(a))
	ctb := tc.encSk.Encrypt(tc.enc.Encode(b))

	out := ev.Mul(cta, ctb)
	want := make([]complex128, n)
	for i := range want {
		want[i] = a[i] * b[i]
	}
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(out))
	if err := maxErr(want, got); err > 1e-4 {
		t.Errorf("Mult error %.3g too large", err)
	}
	if math.Abs(log2(out.Scale)-40) > 1 {
		t.Errorf("scale after rescale = 2^%.2f, want ~2^40", log2(out.Scale))
	}
}

func TestMulChainToBottom(t *testing.T) {
	tc := newTestContext(t)
	rlk := tc.kg.GenRelinearizationKey(tc.sk, false)
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Rlk: rlk})
	n := tc.params.Slots()
	a := randomValues(n, 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(a))

	want := append([]complex128(nil), a...)
	// Square down the whole modulus chain: L = 4 allows 4 rescales.
	for ct.Level > 0 {
		ct = ev.Mul(ct, ct)
		for i := range want {
			want[i] *= want[i]
		}
	}
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(ct))
	if err := maxErr(want, got); err > 1e-2 {
		t.Errorf("repeated squaring error %.3g too large", err)
	}
}

func TestRotate(t *testing.T) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	steps := []int{1, 2, 7, n - 1}
	gks := tc.kg.GenRotationKeys(steps, tc.sk, false)
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Galois: gks})

	a := randomValues(n, 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(a))
	for _, k := range steps {
		out := ev.Rotate(ct, k)
		want := make([]complex128, n)
		for i := range want {
			want[i] = a[(i+k)%n]
		}
		got := tc.enc.Decode(tc.dec.DecryptToPlaintext(out))
		if err := maxErr(want, got); err > 1e-4 {
			t.Errorf("Rotate(%d) error %.3g too large", k, err)
		}
	}
}

func TestRotateZeroIsCopy(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil)
	a := randomValues(tc.params.Slots(), 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(a))
	out := ev.Rotate(ct, 0)
	if out == ct {
		t.Error("Rotate(0) returned the receiver, want a copy")
	}
	if !out.C0.Equal(ct.C0) || !out.C1.Equal(ct.C1) {
		t.Error("Rotate(0) changed the ciphertext")
	}
}

func TestConjugate(t *testing.T) {
	tc := newTestContext(t)
	ck := tc.kg.GenConjugationKey(tc.sk, false)
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Galois: map[uint64]*GaloisKey{ck.GaloisEl: ck}})
	n := tc.params.Slots()
	a := randomValues(n, 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(a))
	out := ev.Conjugate(ct)
	want := make([]complex128, n)
	for i := range want {
		want[i] = cmplx.Conj(a[i])
	}
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(out))
	if err := maxErr(want, got); err > 1e-4 {
		t.Errorf("Conjugate error %.3g too large", err)
	}
}

func TestRotateHoistedMatchesRotate(t *testing.T) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	steps := []int{0, 1, 3, 5, 11}
	gks := tc.kg.GenRotationKeys(steps, tc.sk, false)
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Galois: gks})

	a := randomValues(n, 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(a))

	hoisted := ev.RotateHoisted(ct, steps)
	for _, k := range steps {
		plain := ev.Rotate(ct, k)
		gotH := tc.enc.Decode(tc.dec.DecryptToPlaintext(hoisted[k]))
		gotP := tc.enc.Decode(tc.dec.DecryptToPlaintext(plain))
		if err := maxErr(gotH, gotP); err > 1e-5 {
			t.Errorf("step %d: hoisted and plain rotation differ by %.3g", k, err)
		}
	}
}

// TestCompressedKeysMatchUncompressed verifies the key-compression
// optimization (§3.2): a switching key whose uniform half is regenerated
// from a seed must behave identically to a standard key, at half the size.
func TestCompressedKeysMatchUncompressed(t *testing.T) {
	tc := newTestContext(t)
	n := tc.params.Slots()
	a := randomValues(n, 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(a))

	rlkC := tc.kg.GenRelinearizationKey(tc.sk, true)
	evC := NewEvaluator(tc.params, &EvaluationKeySet{Rlk: rlkC})
	out := evC.Mul(ct, ct)
	want := make([]complex128, n)
	for i := range want {
		want[i] = a[i] * a[i]
	}
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(out))
	if err := maxErr(want, got); err > 1e-4 {
		t.Errorf("compressed-key Mult error %.3g too large", err)
	}

	// Size accounting: compressed keys are half the size (plus seeds).
	rlkU := tc.kg.GenRelinearizationKey(tc.sk, false)
	szC := tc.params.KeySizeBytes(&rlkC.SwitchingKey)
	szU := tc.params.KeySizeBytes(&rlkU.SwitchingKey)
	ratio := float64(szC) / float64(szU)
	if ratio > 0.51 {
		t.Errorf("compressed/uncompressed size ratio %.3f, want ≈ 0.5", ratio)
	}
}

func TestMulByConstReal(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil)
	n := tc.params.Slots()
	a := randomValues(n, 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(a))

	out := ev.Rescale(ev.MulByConstReal(ct, -1.5, tc.params.Scale()))
	want := make([]complex128, n)
	for i := range want {
		want[i] = a[i] * complex(-1.5, 0)
	}
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(out))
	if err := maxErr(want, got); err > 1e-5 {
		t.Errorf("MulByConstReal error %.3g", err)
	}
}

func TestDropLevel(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil)
	a := randomValues(tc.params.Slots(), 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(a))
	out := ev.DropLevel(ct, 1)
	if out.Level != 1 {
		t.Fatalf("level = %d, want 1", out.Level)
	}
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(out))
	if err := maxErr(a, got); err > 1e-6 {
		t.Errorf("DropLevel error %.3g", err)
	}
	// The result is the caller's to mutate (Do's fault hooks do, in place):
	// it shares no storage with its input, unlike the evaluator's internal
	// limb views.
	sum := ct.ComputeChecksum()
	for i := range out.C0.Coeffs {
		out.C0.Coeffs[i][0] ^= 1
		out.C1.Coeffs[i][0] ^= 1
	}
	if ct.ComputeChecksum() != sum {
		t.Error("mutating DropLevel's result changed its input")
	}

	// Only the kept limbs are copied: dropping a 17-limb ciphertext to
	// level 0 allocates its 2 limbs, not 34 and a truncation.
	logQ := []int{48}
	for len(logQ) < 17 {
		logQ = append(logQ, 40)
	}
	p17, err := NewParameters(ParametersLiteral{LogN: 10, LogQ: logQ, LogP: []int{50, 50}, LogScale: 40})
	if err != nil {
		t.Fatal(err)
	}
	rQ := p17.RingQ()
	wide := &Ciphertext{C0: rQ.NewPoly(), C1: rQ.NewPoly(), Scale: p17.Scale(), Level: p17.MaxLevel()}
	ev17 := NewEvaluator(p17, nil)
	limb := uint64(8 * p17.N())
	best := ^uint64(0)
	var m0, m1 runtime.MemStats
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&m0)
		low := ev17.DropLevel(wide, 0)
		runtime.ReadMemStats(&m1)
		if low.Level != 0 || len(low.C0.Coeffs) != 1 || len(low.C1.Coeffs) != 1 {
			t.Fatalf("DropLevel(·, 0) kept level %d and %d+%d limbs", low.Level, len(low.C0.Coeffs), len(low.C1.Coeffs))
		}
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	if best >= 3*limb {
		t.Errorf("DropLevel of 17 limbs to level 0 allocates %d B, want its 2 limbs (%d B) and under one limb more", best, 2*limb)
	}
}

func TestBetaDnum(t *testing.T) {
	p := testParams(t)
	if p.Alpha() != 2 {
		t.Fatalf("alpha = %d, want 2", p.Alpha())
	}
	if p.Dnum() != 3 {
		t.Errorf("dnum = %d, want 3 (= ceil(5/2))", p.Dnum())
	}
	for level, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3} {
		if got := p.Beta(level); got != want {
			t.Errorf("Beta(%d) = %d, want %d", level, got, want)
		}
	}
}

func TestParameterValidation(t *testing.T) {
	if _, err := NewParameters(ParametersLiteral{LogN: 3, LogQ: []int{40}, LogP: []int{40}, LogScale: 30}); err == nil {
		t.Error("expected error for LogN < 4")
	}
	if _, err := NewParameters(ParametersLiteral{LogN: 10, LogQ: nil, LogP: []int{40}, LogScale: 30}); err == nil {
		t.Error("expected error for empty LogQ")
	}
}

func TestMulByI(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil)
	n := tc.params.Slots()
	a := randomValues(n, 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(a))

	out := ev.MulByI(ct)
	want := make([]complex128, n)
	for i := range want {
		want[i] = a[i] * complex(0, 1)
	}
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(out))
	if err := maxErr(want, got); err > 1e-6 {
		t.Errorf("MulByI error %.3g", err)
	}
	if out.Level != ct.Level || !sameScale(out.Scale, ct.Scale) {
		t.Error("MulByI changed level or scale")
	}

	back := ev.MulByMinusI(out)
	got = tc.enc.Decode(tc.dec.DecryptToPlaintext(back))
	if err := maxErr(a, got); err > 1e-6 {
		t.Errorf("MulByMinusI(MulByI(x)) != x: %.3g", err)
	}
}

// TestMulByIConcurrentDo: the copies Do hands out share the evaluator's
// state by pointer, so MulByI must only read it. Concurrent Do(MulByI)
// calls at two levels on one evaluator — the first MulByI calls these
// parameters see — must be race-free (CI runs this under -race) and return
// what a serial call returns afterwards.
func TestMulByIConcurrentDo(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil)
	top := encryptRandom(tc)
	ins := []*Ciphertext{top, ev.DropLevel(top, 1)}

	const perLevel = 4
	outs := make([]*Ciphertext, perLevel*len(ins))
	var wg sync.WaitGroup
	for k := range outs {
		ct := ins[k%len(ins)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := ev.Do(context.Background(), "ckks.MulByI", func(ev *Evaluator) *Ciphertext { return ev.MulByI(ct) }, ct)
			if err != nil {
				t.Errorf("level %d: Do(MulByI): %v", ct.Level, err)
			}
			outs[k] = out
		}()
	}
	wg.Wait()
	for k, out := range outs {
		ct := ins[k%len(ins)]
		if out != nil && !ctEqual(out, ev.MulByI(ct)) {
			t.Errorf("level %d: concurrent Do(MulByI) differs from the serial call", ct.Level)
		}
	}
}

func TestSparseSecretKey(t *testing.T) {
	tc := newTestContext(t)
	const h = 32
	sk := tc.kg.GenSecretKeySparse(h)

	// Verify the Hamming weight by round-tripping through iNTT.
	sQ := sk.Value.Q.CopyNew()
	tc.params.RingQ().INTTPoly(sQ)
	q0 := tc.params.Q()[0]
	nonzero := 0
	for j := 0; j < tc.params.N(); j++ {
		switch sQ.Coeffs[0][j] {
		case 0:
		case 1, q0 - 1:
			nonzero++
		default:
			t.Fatalf("non-ternary secret coefficient %d", sQ.Coeffs[0][j])
		}
	}
	if nonzero != h {
		t.Errorf("Hamming weight = %d, want %d", nonzero, h)
	}

	// The sparse key must still decrypt correctly.
	src := testSource()
	enc := NewSecretKeyEncryptor(tc.params, sk, src)
	dec := NewDecryptor(tc.params, sk)
	vals := randomValues(tc.params.Slots(), 1)
	got := tc.enc.Decode(dec.DecryptToPlaintext(enc.Encrypt(tc.enc.Encode(vals))))
	if err := maxErr(vals, got); err > 1e-6 {
		t.Errorf("sparse-key decryption error %.3g", err)
	}
}

func TestSquareMatchesMul(t *testing.T) {
	tc := newTestContext(t)
	rlk := tc.kg.GenRelinearizationKey(tc.sk, false)
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Rlk: rlk})
	a := randomValues(tc.params.Slots(), 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(a))

	sq := ev.Rescale(ev.Square(ct))
	mul := ev.Mul(ct, ct)
	gotS := tc.enc.Decode(tc.dec.DecryptToPlaintext(sq))
	gotM := tc.enc.Decode(tc.dec.DecryptToPlaintext(mul))
	if err := maxErr(gotS, gotM); err > 1e-5 {
		t.Errorf("Square and Mul(x,x) differ by %.3g", err)
	}
}

func TestMatchScaleLevel(t *testing.T) {
	tc := newTestContext(t)
	rlk := tc.kg.GenRelinearizationKey(tc.sk, false)
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Rlk: rlk})
	a := randomValues(tc.params.Slots(), 1)
	b := randomValues(tc.params.Slots(), 1)
	ctA := tc.encSk.Encrypt(tc.enc.Encode(a))
	ctB := tc.encSk.Encrypt(tc.enc.Encode(b))

	// Bring a fresh ciphertext down to a product's (level, scale) and add.
	prod := ev.Mul(ctA, ctB)
	adj := ev.MatchScaleLevel(ctA, prod.Level, prod.Scale)
	if adj.Level != prod.Level || !sameScale(adj.Scale, prod.Scale) {
		t.Fatalf("MatchScaleLevel gave (level %d, scale 2^%.2f), want (%d, 2^%.2f)",
			adj.Level, log2(adj.Scale), prod.Level, log2(prod.Scale))
	}
	sum := ev.Add(prod, adj)
	got := tc.enc.Decode(tc.dec.DecryptToPlaintext(sum))
	want := make([]complex128, len(a))
	for i := range want {
		want[i] = a[i]*b[i] + a[i]
	}
	if err := maxErr(want, got); err > 1e-4 {
		t.Errorf("value drifted through MatchScaleLevel: %.3g", err)
	}

	defer func() {
		if recover() == nil {
			t.Error("MatchScaleLevel without a spare level should panic")
		}
	}()
	ev.MatchScaleLevel(prod, prod.Level, prod.Scale)
}

// TestSwitchKeysReEncrypts: the generic KeySwitch of §2.2 — a ciphertext
// under Alice's key becomes decryptable under Bob's, and only Bob's.
func TestSwitchKeysReEncrypts(t *testing.T) {
	tc := newTestContext(t)
	var seed [prng.SeedSize]byte
	copy(seed[:], "a different seed for Bob's keys!")
	kgB := NewKeyGenerator(tc.params, prng.NewSource(seed))
	skBob := kgB.GenSecretKey()

	swk := tc.kg.GenKeySwitchingKey(tc.sk, skBob, true)
	ev := NewEvaluator(tc.params, nil)

	vals := randomValues(tc.params.Slots(), 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(vals))
	switched := ev.SwitchKeys(ct, swk)

	decBob := NewDecryptor(tc.params, skBob)
	got := tc.enc.Decode(decBob.DecryptToPlaintext(switched))
	if err := maxErr(vals, got); err > 1e-4 {
		t.Errorf("Bob cannot decrypt the switched ciphertext: %.3g", err)
	}
	// Alice's key no longer decrypts it.
	gotAlice := tc.enc.Decode(tc.dec.DecryptToPlaintext(switched))
	if err := maxErr(vals, gotAlice); err < 1e-1 {
		t.Error("switched ciphertext still decrypts under the old key")
	}
}
