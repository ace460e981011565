package bootstrap

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/ckks"
	"repro/internal/faultinject"
	"repro/internal/fherr"
)

// checkedBootFixture builds the full bootstrap stack on the test-scale
// parameters, returning everything the guard tests need.
type checkedBootFixture struct {
	params *ckks.Parameters
	sk     *ckks.SecretKey
	btp    *Bootstrapper
	enc    *ckks.Encoder
	encSk  *ckks.Encryptor
}

func newCheckedBootFixture(t *testing.T) *checkedBootFixture {
	t.Helper()
	params := bootParams(t)
	src := bootSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)
	btp, err := NewBootstrapper(params, DefaultParameters(), sk, src, false)
	if err != nil {
		t.Fatal(err)
	}
	return &checkedBootFixture{
		params: params,
		sk:     sk,
		btp:    btp,
		enc:    ckks.NewEncoder(params),
		encSk:  ckks.NewSecretKeyEncryptor(params, sk, src),
	}
}

func (f *checkedBootFixture) exhaustedCiphertext() *ckks.Ciphertext {
	n := f.params.Slots()
	msg := make([]complex128, n)
	for i := range msg {
		msg[i] = complex(rand.Float64()*2-1, rand.Float64()*2-1)
	}
	ct := f.encSk.Encrypt(f.enc.Encode(msg))
	return f.btp.Evaluator().DropLevel(ct, 0)
}

func TestBootstrapEValidatesInput(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	f := newCheckedBootFixture(t)

	if _, err := f.btp.BootstrapE(context.Background(), nil); !errors.Is(err, fherr.ErrDegree) {
		t.Fatalf("nil input: %v, want ErrDegree", err)
	}
	bad := f.exhaustedCiphertext()
	bad.C0.IsNTT = false
	if _, err := f.btp.BootstrapE(context.Background(), bad); !errors.Is(err, fherr.ErrNTTDomain) {
		t.Fatalf("coefficient-form input: %v, want ErrNTTDomain", err)
	}
}

func TestBootstrapEWithPrecisionGuardPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	f := newCheckedBootFixture(t)
	// The seeded end-to-end error is ~5e-4, i.e. ≳11 bits on the worst
	// slot; an 8-bit floor passes with margin.
	f.btp.ArmPrecisionGuard(f.sk, 8)
	f.btp.Evaluator().SetIntegrity(true)

	out, err := f.btp.BootstrapE(context.Background(), f.exhaustedCiphertext())
	if err != nil {
		t.Fatalf("guarded bootstrap failed: %v", err)
	}
	if out.Level <= 0 {
		t.Fatalf("output level %d, want > 0", out.Level)
	}
	if out.Sum == 0 {
		t.Fatal("integrity on, but output not sealed")
	}
	if err := f.params.Validate(out); err != nil {
		t.Fatalf("sealed output invalid: %v", err)
	}
}

func TestBootstrapEPrecisionGuardCatchesKeyCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	f := newCheckedBootFixture(t)
	f.btp.ArmPrecisionGuard(f.sk, 8)

	// Flip one high bit of a switching-key digit mid-pipeline: the result
	// stays structurally perfect but encrypts garbage — only the
	// decrypt-compare probe can notice.
	fi := faultinject.New()
	fi.Arm(faultinject.Fault{Site: "ckks.ksk.digitB", Kind: faultinject.KindBitFlip, Limb: 0, Coeff: 5, Bit: 33, Visit: 3})
	f.btp.Evaluator().SetFaultInjector(fi)

	_, err := f.btp.BootstrapE(context.Background(), f.exhaustedCiphertext())
	if !errors.Is(err, fherr.ErrPrecisionLoss) {
		t.Fatalf("corrupted key: %v, want ErrPrecisionLoss", err)
	}
	if len(fi.Events()) != 1 {
		t.Fatalf("fault did not fire exactly once: %v", fi.Events())
	}
}

func TestBootstrapEImpossibleFloorFails(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	f := newCheckedBootFixture(t)
	// No approximate bootstrap reaches 60 bits on these parameters: the
	// guard itself must trip even on a healthy run.
	f.btp.ArmPrecisionGuard(f.sk, 60)
	if _, err := f.btp.BootstrapE(context.Background(), f.exhaustedCiphertext()); !errors.Is(err, fherr.ErrPrecisionLoss) {
		t.Fatalf("60-bit floor: %v, want ErrPrecisionLoss", err)
	}
}
