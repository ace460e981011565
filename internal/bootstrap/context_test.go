package bootstrap

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ckks"
	"repro/internal/fherr"
)

// TestBootstrapCancellationLatency: a deadline expiring mid-bootstrap
// aborts BootstrapE with a typed fherr.ErrCanceled well before the full
// bootstrap would have finished, and the bootstrapper remains usable —
// the property the fhed server's request deadlines and drain budget
// depend on.
func TestBootstrapCancellationLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is expensive; skipping in -short mode")
	}
	params := bootParams(t)
	src := bootSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)
	btp, err := NewBootstrapper(params, DefaultParameters(), sk, src, false)
	if err != nil {
		t.Fatal(err)
	}

	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	msg := make([]complex128, params.Slots())
	for i := range msg {
		msg[i] = complex(rand.Float64()*2-1, 0)
	}
	ct := encryptor.Encrypt(enc.Encode(msg))
	ct = btp.Evaluator().DropLevel(ct, 0)

	// Reference timing for the full bootstrap.
	t0 := time.Now()
	want, err := btp.BootstrapE(context.Background(), ct)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	// Cancel a fraction of the way in; the abort must be typed and fast.
	ctx, cancel := context.WithTimeout(context.Background(), full/10)
	defer cancel()
	t0 = time.Now()
	_, err = btp.BootstrapE(ctx, ct)
	elapsed := time.Since(t0)
	if !errors.Is(err, fherr.ErrCanceled) {
		t.Fatalf("BootstrapE under deadline: err = %v, want ErrCanceled", err)
	}
	// Cancellation latency: the abort point is at worst one evaluator op
	// after the deadline. Allow half the full runtime as a generous CI
	// bound; the typical case is a few milliseconds.
	if elapsed > full/10+full/2 {
		t.Errorf("cancellation took %v of a %v bootstrap — deadline did not stop work", elapsed, full)
	}

	// Reusable and bit-identical afterwards, with nothing to clear.
	got, err := btp.BootstrapE(context.Background(), ct)
	if err != nil {
		t.Fatalf("BootstrapE after cancellation: %v", err)
	}
	if !got.C0.Equal(want.C0) || !got.C1.Equal(want.C1) {
		t.Error("post-cancellation bootstrap diverges — evaluator state corrupted")
	}
}
