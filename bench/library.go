package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"repro/internal/bootstrap"
	"repro/internal/ckks"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/prng"
)

// Precision floors, in bits of the worst slot: 3 bits under the lowest
// value a timed run on seeds 1 and 2 read on the sandbox (see README).
const (
	multChainFloor = 17.0
	matvecFloor    = 23.0
	bootstrapFloor = 10.0
)

// inputPool is how many pre-encrypted inputs a library workload cycles
// through. Encryption draws randomness, so inputs are encrypted once at
// set-up: op i always evaluates input i mod inputPool, which makes its
// output a function of the seed alone and lets the traced pass be checked
// bit-identical against the untraced one.
const inputPool = 4

// program is the homomorphic part of one op. It opens its spans under
// parent for op id op.
type program func(tr *tracer, op, parent int, in *ckks.Ciphertext) *ckks.Ciphertext

// library is an instance of a workload that calls the Go CKKS stack
// directly, on one goroutine, with workers = 1.
type library struct {
	params *ckks.Parameters
	ev     *ckks.Evaluator
	enc    *ckks.Encoder
	dec    *ckks.Decryptor
	model  *ledger.Model // nil when the model has no point for params
	rec    *obs.Recorder // made by the first observe(true)

	in    []*ckks.Ciphertext
	want  [][]complex128 // plaintext shadow of the program on each input
	floor float64        // correctness gate, in bits of the worst slot

	run       program
	unspanned func(m *ledger.Model) obs.OpCost
}

// newLibrary is the part of set-up every library workload shares:
// parameters, a seeded key generator and secret key, encoder, decryptor
// and the model point.
func newLibrary(lit ckks.ParametersLiteral, src *prng.Source, sparse int) (*library, *ckks.KeyGenerator, *ckks.SecretKey, error) {
	params, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, nil, nil, err
	}
	kg := ckks.NewKeyGenerator(params, src)
	var sk *ckks.SecretKey
	if sparse > 0 {
		sk = kg.GenSecretKeySparse(sparse)
	} else {
		sk = kg.GenSecretKey()
	}
	l := &library{
		params: params,
		enc:    ckks.NewEncoder(params),
		dec:    ckks.NewDecryptor(params, sk),
	}
	// The model covers only parameter shapes it can map to a dnum; the
	// prediction rows read 0 where it cannot.
	l.model, _ = ledger.ForParameters(params)
	return l, kg, sk, nil
}

// encryptInputs encrypts the pool and stores each input's shadow output.
func (l *library) encryptInputs(sk *ckks.SecretKey, src *prng.Source, vals [][]complex128, shadow func([]complex128) []complex128, prepare func(*ckks.Ciphertext) *ckks.Ciphertext) {
	encryptor := ckks.NewSecretKeyEncryptor(l.params, sk, src)
	for _, v := range vals {
		ct := encryptor.Encrypt(l.enc.Encode(v))
		if prepare != nil {
			ct = prepare(ct)
		}
		l.in = append(l.in, ct)
		l.want = append(l.want, shadow(v))
	}
}

func (l *library) clients() int { return 1 }

func (l *library) step(_, it int, tr *tracer) []sample {
	s := sample{kind: "op", failed: true}
	func() {
		// The evaluator reports misuse by panicking; a panic is a failed op.
		defer func() {
			if r := recover(); r != nil {
				fmt.Printf("op %d failed: %v\n", it, r)
			}
		}()
		k := it % len(l.in)
		var out *ckks.Ciphertext
		var pt *ckks.Plaintext
		var got []complex128
		start := time.Now()
		root := tr.start(it, 0, "op")
		out = l.run(tr, it, root, l.in[k])
		tr.do(it, root, "Decrypt", func() { pt = l.dec.DecryptToPlaintext(out) })
		tr.do(it, root, "Decode", func() { got = l.enc.Decode(pt) })
		tr.end(root)
		s.latency = time.Since(start)
		s.prec, s.checked = ckks.Precision(l.want[k], got), true
		s.digest = digestCt(out)
		s.failed = s.prec.MinPrecisionBits < l.floor
		if s.failed {
			fmt.Printf("op %d failed: %v under the floor of %.1f bits\n", it, s.prec, l.floor)
		}
	}()
	return []sample{s}
}

func (l *library) observe(on bool) *obs.Recorder {
	if !on {
		l.ev.SetRecorder(nil)
		l.ev.SetCostModel(nil)
		return nil
	}
	if l.rec == nil {
		// Unbounded retention: a traced pass is a few ops, and a span evicted
		// from the default ring would leave a hole in the self-time table.
		l.rec = obs.NewRecorder(obs.WithSpanCap(0))
	}
	l.ev.SetRecorder(l.rec)
	if l.model != nil {
		l.ev.SetCostModel(l.model)
	}
	return l.rec
}

func (l *library) vault() (ckks.KeyVaultStats, error) { return l.ev.KeyVaultStats(), nil }

func (l *library) layers() layerInfo {
	return layerInfo{params: l.params, ev: l.ev, unspanned: l.unspanned}
}

func (l *library) close() error { return nil }

// unitVectors draws the mult_chain inputs: slots on the unit circle, so
// 8 squarings keep magnitude 1 and the worst-slot error stays meaningful.
func unitVectors(seed uint64, slots int) [][]complex128 {
	out := make([][]complex128, inputPool)
	for k := range out {
		src := inputs(seed, "mult_chain/input", k)
		out[k] = make([]complex128, slots)
		for i := range out[k] {
			out[k][i] = cmplx.Rect(1, 2*math.Pi*src.Float64())
		}
	}
	return out
}

// setupMultChain: logN=13, Q = {50, 40×8}, P = {50,50,50}, one resident
// expanded relinearization key. One op squares the input 8 times, from
// the top level down to level 0.
func setupMultChain(seed uint64) (instance, error) {
	src := inputs(seed, "mult_chain/keys")
	l, kg, sk, err := newLibrary(ckks.ParametersLiteral{
		LogN: 13, LogQ: logQ(50, 40, 8), LogP: []int{50, 50, 50}, LogScale: 40,
	}, src, 0)
	if err != nil {
		return nil, err
	}
	l.floor = multChainFloor
	l.ev = ckks.NewEvaluator(l.params, &ckks.EvaluationKeySet{Rlk: kg.GenRelinearizationKey(sk, false)})
	depth := l.params.MaxLevel()
	l.encryptInputs(sk, src, unitVectors(seed, l.params.Slots()), func(v []complex128) []complex128 {
		want := make([]complex128, len(v))
		for i, x := range v {
			for d := 0; d < depth; d++ {
				x *= x
			}
			want[i] = x
		}
		return want
	}, nil)
	l.run = func(tr *tracer, op, parent int, x *ckks.Ciphertext) *ckks.Ciphertext {
		for x.Level > 0 {
			tr.do(op, parent, "MulRelin", func() { x = l.ev.MulRelin(x, x) })
			tr.do(op, parent, "Rescale", func() { x = l.ev.Rescale(x) })
		}
		return x
	}
	return l, nil
}

// matvecDiagonals is the number of generalized diagonals, and so of
// rotations and Galois keys, of the matvec_hoisted matrix.
const matvecDiagonals = 64

// matvecInputs draws the matrix diagonals 1..64 and the input vectors.
func matvecInputs(seed uint64, slots int) (diags map[int][]complex128, vecs [][]complex128) {
	diags = make(map[int][]complex128, matvecDiagonals)
	for d := 1; d <= matvecDiagonals; d++ {
		src := inputs(seed, "matvec_hoisted/diagonal", d)
		v := make([]complex128, slots)
		for i := range v {
			v[i] = complex((2*src.Float64()-1)/8, 0)
		}
		diags[d] = v
	}
	vecs = make([][]complex128, inputPool)
	for k := range vecs {
		src := inputs(seed, "matvec_hoisted/input", k)
		vecs[k] = make([]complex128, slots)
		for i := range vecs[k] {
			vecs[k][i] = complex(2*src.Float64()-1, 0)
		}
	}
	return diags, vecs
}

// setupMatvec: logN=12, Q = {50, 40×5}, P = {50,50}. A 64-diagonal
// plaintext matrix applied with the hoisted-ModDown transform; its 64
// Galois keys are seed-only and the vault may keep a quarter of their
// expanded halves, so every op expands keys from seeds and evicts them.
func setupMatvec(seed uint64) (instance, error) {
	src := inputs(seed, "matvec_hoisted/keys")
	l, kg, sk, err := newLibrary(ckks.ParametersLiteral{
		LogN: 12, LogQ: logQ(50, 40, 5), LogP: []int{50, 50}, LogScale: 40,
	}, src, 0)
	if err != nil {
		return nil, err
	}
	l.floor = matvecFloor
	p := l.params
	slots := p.Slots()
	diags, vecs := matvecInputs(seed, slots)
	lt := ckks.NewLinearTransform(l.enc, diags, p.MaxLevel(), p.Scale(), 0, true)
	gks := kg.GenGaloisKeys(lt.RotationSteps(), sk)
	expanded := int64(len(gks)) * int64(p.Dnum()) * int64(p.MaxLevel()+1+p.Alpha()) * int64(p.N()) * 8
	l.ev = ckks.NewEvaluator(p, &ckks.EvaluationKeySet{Galois: gks}, ckks.WithKeyBudget(expanded/4))
	l.encryptInputs(sk, src, vecs, func(v []complex128) []complex128 {
		want := make([]complex128, slots)
		for d, diag := range diags {
			for i := range want {
				want[i] += diag[i] * v[(i+d)%slots]
			}
		}
		return want
	}, nil)
	l.run = func(tr *tracer, op, parent int, x *ckks.Ciphertext) *ckks.Ciphertext {
		tr.do(op, parent, "LinearTransform", func() { x = l.ev.EvalLinearTransformHoistedModDown(x, lt) })
		tr.do(op, parent, "Rescale", func() { x = l.ev.Rescale(x) })
		return x
	}
	l.unspanned = func(m *ledger.Model) obs.OpCost {
		c, _ := m.PredictOp("RotateHoisted", p.MaxLevel()+1, matvecDiagonals)
		return c
	}
	return l, nil
}

// squareVectors draws the bootstrap inputs: slots in the complex unit
// square, as the repo's bootstrap tests use.
func squareVectors(seed uint64, slots int) [][]complex128 {
	out := make([][]complex128, inputPool)
	for k := range out {
		src := inputs(seed, "bootstrap/input", k)
		out[k] = make([]complex128, slots)
		for i := range out[k] {
			out[k][i] = complex(2*src.Float64()-1, 2*src.Float64()-1)
		}
	}
	return out
}

// setupBootstrap: logN=9, Q = {48, 40×16}, P = {50,50,50}, sparse secret,
// seed-compressed keys, unlimited vault budget. One op is one full
// bootstrap of a level-0 ciphertext.
func setupBootstrap(seed uint64) (instance, error) {
	src := inputs(seed, "bootstrap/keys")
	l, _, sk, err := newLibrary(ckks.ParametersLiteral{
		LogN: 9, LogQ: logQ(48, 40, 16), LogP: []int{50, 50, 50}, LogScale: 40,
	}, src, 16)
	if err != nil {
		return nil, err
	}
	l.floor = bootstrapFloor
	btp, err := bootstrap.NewBootstrapper(l.params, bootstrap.DefaultParameters(), sk, src, true)
	if err != nil {
		return nil, err
	}
	l.ev = btp.Evaluator()
	l.encryptInputs(sk, src, squareVectors(seed, l.params.Slots()),
		func(v []complex128) []complex128 { return v },
		func(ct *ckks.Ciphertext) *ckks.Ciphertext { return l.ev.DropLevel(ct, 0) })
	l.run = func(tr *tracer, op, parent int, x *ckks.Ciphertext) *ckks.Ciphertext {
		tr.do(op, parent, "Bootstrap", func() { x = btp.Bootstrap(x) })
		return x
	}
	return l, nil
}
