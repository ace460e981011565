package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/ckks"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/prng"
)

// sample is the outcome of one op: one homomorphic program run for the
// library workloads, one HTTP request for fhed_mixed.
type sample struct {
	kind    string // "op", or the request's route for fhed_mixed
	client  int    // the closed-loop caller that ran it
	latency time.Duration
	// host is how much slower than nominal the host ran around the op's
	// step (hostspeed.go); 1 where the reference was not run.
	host   float64
	failed bool // error, refusal, bad status or body, or precision under the floor
	// checked marks samples whose output was decrypted and compared with
	// the plaintext shadow; prec is that comparison.
	checked bool
	prec    ckks.PrecisionStats
	// digest is the SHA-256 of the serialized output ciphertext, where the
	// output is a function of the inputs alone (library workloads); it is
	// what the traced pass is checked bit-identical against.
	digest [sha256.Size]byte
	// reqBytes and respBytes are the HTTP body sizes (fhed_mixed only).
	reqBytes, respBytes int
}

// workload builds instances of one benchmark workload from a seed.
type workload struct {
	name string
	// rootSpan names the benchmark's root span of one op.
	rootSpan string
	// tracedSteps is how many steps per client the traced pass repeats:
	// enough that a median over one span per step has ten samples beyond it.
	tracedSteps int
	// workerSweep adds a pass at workers = 2 to the traced run.
	workerSweep bool
	setup       func(seed uint64) (instance, error)
}

// instance is one set-up workload: parameters, keys, inputs and, for
// fhed_mixed, a running server.
type instance interface {
	// clients is how many closed-loop callers drive the instance: 1 for a
	// library workload (one goroutine, so schedules and counts repeat),
	// 2 for fhed_mixed.
	clients() int
	// step runs iteration it of client c and returns one sample per op:
	// one op for a library workload, one 11-request program for
	// fhed_mixed. Spans go to tr, which may be nil.
	step(c, it int, tr *tracer) []sample
	// observe attaches (or detaches) the instance's obs.Recorder and the
	// cost model to the evaluator and returns the recorder, the same one
	// every time. The fhed server's recorder is always on; its instance
	// returns that one and ignores the argument.
	observe(on bool) *obs.Recorder
	// vault sums the key-vault counters of every evaluator involved.
	vault() (ckks.KeyVaultStats, error)
	// layers describes the instance to the per-layer probes.
	layers() layerInfo
	close() error
}

// layerInfo is what the per-layer probes and the model prediction need
// to know about an instance.
type layerInfo struct {
	params *ckks.Parameters
	// ev is the evaluator for the memory trace; nil where the benchmark
	// cannot reach it from outside (fhed_mixed).
	ev *ckks.Evaluator
	// unspanned is the model's prediction for the public calls of one
	// step that emit no recorder op span, which the sum over span
	// attributes therefore misses.
	unspanned func(m *ledger.Model) obs.OpCost
}

// workloads lists the four workloads in the order BENCHMARK.json does.
var workloads = []workload{
	{name: "mult_chain", rootSpan: "op", tracedSteps: 20, setup: setupMultChain},
	{name: "matvec_hoisted", rootSpan: "op", tracedSteps: 20, setup: setupMatvec},
	{name: "bootstrap", rootSpan: "op", tracedSteps: 20, workerSweep: true, setup: setupBootstrap},
	{name: "fhed_mixed", rootSpan: "request", tracedSteps: 10, setup: setupFhed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs returns the deterministic stream all inputs of one purpose are
// drawn from: the same seed and label give the same stream.
func inputs(seed uint64, label string, idx ...int) *prng.Source {
	return prng.NewSource(sha256.Sum256(fmt.Appendf(nil, "madbench/%d/%s/%v", seed, label, idx)))
}

// logQ returns a modulus chain of one first-size prime and n rest-size.
func logQ(first, rest, n int) []int {
	q := []int{first}
	for i := 0; i < n; i++ {
		q = append(q, rest)
	}
	return q
}

// digestCt hashes a ciphertext's serialized bytes.
func digestCt(ct *ckks.Ciphertext) [sha256.Size]byte {
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return sha256.Sum256(buf.Bytes())
}
