//go:build !race

package bootstrap

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/ckks"
)

// TestBootstrapAllocatesOnlyOutput pins what one steady-state Bootstrap
// allocates at the benchmark's shape (logN 9, 17 Q limbs, three P limbs,
// seed-compressed keys under an unlimited budget): the ciphertext it
// returns and bootBookkeeping bytes more. Every intermediate of the four
// phases goes back to the evaluator's pools after its last reader; the
// smallest, the last SlotToCoeff group's input (3 limbs per half), is
// 24 KiB, so one left to the allocator breaks the allowance, and the 45 or
// so the pipeline drops per bootstrap would cost about 4.8 MB. GC is held
// off while measuring so the pools are not dropped mid-run, and the best
// of a few tries discards the pool misses of a goroutine migration.
func TestBootstrapAllocatesOnlyOutput(t *testing.T) {
	logQ := []int{48}
	for range 16 {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: 9, LogQ: logQ, LogP: []int{50, 50, 50}, LogScale: 40})
	if err != nil {
		t.Fatal(err)
	}
	src := bootSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)
	btp, err := NewBootstrapper(params, DefaultParameters(), sk, src, true)
	if err != nil {
		t.Fatal(err)
	}
	enc := ckks.NewEncoder(params)
	vals := make([]complex128, params.Slots())
	for i := range vals {
		vals[i] = complex(float64(i%7)/7-0.5, float64(i%5)/5-0.5)
	}
	ct := btp.Evaluator().DropLevel(ckks.NewSecretKeyEncryptor(params, sk, src).Encrypt(enc.Encode(vals)), 0)
	// The phases' closures, the transforms' and the polynomial schedule's
	// per-call slices and ciphertext headers: 15.3 KiB measured (15,448 or
	// 15,624 B), and a quarter more for the runtime's size classes.
	const bootBookkeeping = 20 << 10

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := btp.Bootstrap(ct) // warm the pools and the key vault
	output := 2 * uint64(out.Level+1) * uint64(8*params.N())
	best := ^uint64(0)
	var m0, m1 runtime.MemStats
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&m0)
		btp.Bootstrap(ct)
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	t.Logf("Bootstrap allocates %d B, its output %d B", best, output)
	if best > output+bootBookkeeping {
		t.Errorf("Bootstrap allocates %d B, want its output's %d B and at most %d B more: an intermediate is not released or an output not pooled", best, output, bootBookkeeping)
	}
}
