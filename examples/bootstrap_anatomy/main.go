// Bootstrap anatomy: runs a real CKKS bootstrap with the functional
// library at toy parameters (N = 2^10), reporting per-phase wall time and
// the final precision, then shows the same pipeline through the simulator
// at the paper's scale (N = 2^17) with the per-phase cost breakdown and
// the effect of each MAD optimization family.
package main

import (
	"fmt"
	"math/cmplx"
	"math/rand/v2"
	"time"

	"repro/internal/bootstrap"
	"repro/internal/ckks"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/simfhe"
)

func main() {
	fmt.Println("=== Part 1: a real bootstrap (functional library, N = 2^10) ===")
	functional()
	fmt.Println("\n=== Part 2: the same pipeline at paper scale (simulator, N = 2^17) ===")
	simulated()
}

func functional() {
	logQ := []int{48}
	for i := 0; i < 16; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 10, LogQ: logQ, LogP: []int{50, 50, 50}, LogScale: 40,
	})
	if err != nil {
		panic(err)
	}
	src, _ := prng.NewRandomSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKeySparse(16)

	start := time.Now()
	btp, err := bootstrap.NewBootstrapper(params, bootstrap.DefaultParameters(), sk, src, true)
	if err != nil {
		panic(err)
	}
	fmt.Printf("setup (DFT matrices + keys): %v\n", time.Since(start))

	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewSecretKeyEncryptor(params, sk, src)
	dec := ckks.NewDecryptor(params, sk)

	n := params.Slots()
	msg := make([]complex128, n)
	for i := range msg {
		msg[i] = complex(rand.Float64()*2-1, rand.Float64()*2-1)
	}
	ct := encryptor.Encrypt(enc.Encode(msg))
	ct = btp.Evaluator().DropLevel(ct, 0)
	fmt.Printf("input: level %d (exhausted)\n", ct.Level)

	// Record the bootstrap: the recorder captures one span per phase,
	// each carrying the deltas of the evaluator's ckks.* counters.
	rec := obs.NewRecorder()
	btp.Evaluator().SetRecorder(rec)
	start = time.Now()
	out := btp.Bootstrap(ct)
	fmt.Printf("bootstrap: %v -> level %d\n", time.Since(start), out.Level)

	snap := rec.Snapshot()
	fmt.Printf("\n%-24s %12s %8s %8s %10s %8s\n", "phase", "wall time", "% total", "NTTs", "keyswitch", "rotates")
	total := snap.SpansNamed("bootstrap.Bootstrap")[0]
	for _, name := range []string{
		"bootstrap.ModRaise", "bootstrap.CoeffToSlot", "bootstrap.EvalMod", "bootstrap.SlotToCoeff",
	} {
		sp := snap.SpansNamed(name)[0]
		fmt.Printf("%-24s %12v %7.1f%% %8d %10d %8d\n",
			name, sp.Dur.Round(time.Millisecond), 100*float64(sp.Dur)/float64(total.Dur),
			sp.Counters["ckks.ntt"], sp.Counters["ckks.keyswitch"], sp.Counters["ckks.rotate"])
	}
	fmt.Printf("%-24s %12v %7.1f%% %8d %10d %8d\n",
		"total", total.Dur.Round(time.Millisecond), 100.0,
		total.Counters["ckks.ntt"], total.Counters["ckks.keyswitch"], total.Counters["ckks.rotate"])

	got := enc.Decode(dec.DecryptToPlaintext(out))
	worst := 0.0
	for i := range msg {
		if d := cmplx.Abs(got[i] - msg[i]); d > worst {
			worst = d
		}
	}
	fmt.Printf("max slot error after refresh: %.3g\n", worst)
	if worst > 5e-4 {
		panic("bootstrap_anatomy: precision regression")
	}
}

func simulated() {
	for _, cfg := range []struct {
		name string
		opts simfhe.OptSet
	}{
		{"no optimizations", simfhe.NoOpts()},
		{"caching (§3.1)", simfhe.CachingOpts()},
		{"caching + algorithmic (§3.2)", simfhe.AllOpts()},
	} {
		ctx := simfhe.NewCtx(simfhe.Optimal(), simfhe.MB(32), cfg.opts)
		bd := ctx.Bootstrap()
		fmt.Printf("\n%s:\n", cfg.name)
		for _, ph := range []struct {
			name string
			c    simfhe.Cost
		}{
			{"ModRaise", bd.ModRaise},
			{"CoeffToSlot", bd.CoeffToSlot},
			{"EvalMod", bd.EvalMod},
			{"SlotToCoeff", bd.SlotToCoeff},
			{"TOTAL", bd.Total()},
		} {
			fmt.Printf("   %-12s %9.2f Gops %9.2f GB   AI %5.2f\n", ph.name, ph.c.GOps(), ph.c.GB(), ph.c.AI())
		}
	}
}
