// Package fhecli implements the `fhe` command: a file-based workflow over
// the functional CKKS library. Keys live in a directory (the secret key
// stays client-side; evaluation keys ship compressed), ciphertexts are
// single files in the library's wire format, and every operation is a
// subcommand — so the whole encrypt → compute → decrypt loop can be
// driven from a shell and tested end to end.
package fhecli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/ckks"
	"repro/internal/fherr"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/prng"
)

// recorder, when non-nil (armed by a leading -debug-addr, -stats or
// -chaos flag), is attached to every evaluator the subcommands build, so
// /metrics, the -stats summary table and the FLIGHT.json fault dump all
// see the ckks.* spans and counters of the operation in flight.
var recorder *obs.Recorder

// flightPath is where the dump-on-fault hook (and the chaos suite)
// writes the flight-recorder window; set by the leading -flight-out
// flag.
var flightPath = "FLIGHT.json"

// workerCount is the evaluator parallelism selected by the leading
// -workers flag: 1 is serial, ≤ 0 selects GOMAXPROCS. Results are
// bit-identical regardless of the setting.
var workerCount = 1

// Run dispatches the subcommand. A leading -debug-addr ADDR serves
// /debug/pprof, /metrics and /healthz over HTTP for the duration of the
// command (drained with a bounded timeout on exit); a leading -workers N
// parallelizes the evaluator across N goroutines; a leading -stats
// prints an end-of-run telemetry table (latency percentiles per op,
// counters, memory gauges); a leading -flight-out FILE sets where the
// flight recorder dumps its window when a fault is classified; a leading
// -chaos runs the fault-injection smoke suite instead of a subcommand.
// Output goes to w; errors are returned, typed so the caller can map
// them to exit codes with fherr.ExitCode.
func Run(args []string, w io.Writer) error {
	usageErr := fherr.Errorf(fherr.ErrUsage,
		"usage: fhe [-debug-addr ADDR] [-workers N] [-stats] [-flight-out FILE] [-chaos [-chaos-out FILE]] {keygen|encrypt|add|mul|rotate|sum|decrypt|info} [flags]")
	if len(args) == 0 {
		return usageErr
	}
	global := flag.NewFlagSet("fhe", flag.ContinueOnError)
	debugAddr := global.String("debug-addr", "", "serve /debug/pprof, /metrics and /healthz on this address while the command runs")
	workers := global.Int("workers", 1, "evaluator goroutines (0 = all cores); results are bit-identical at any setting")
	stats := global.Bool("stats", false, "print an end-of-run telemetry summary (op latency percentiles, counters, memory gauges)")
	flightOut := global.String("flight-out", "FLIGHT.json", "where the flight recorder dumps the last spans and counters when a fault is classified")
	chaos := global.Bool("chaos", false, "run the fault-injection smoke suite and exit")
	chaosOut := global.String("chaos-out", "CHAOS.json", "where -chaos writes its machine-readable report")
	global.SetOutput(io.Discard)
	if err := global.Parse(args); err != nil {
		return usageErr
	}
	workerCount = *workers
	flightPath = *flightOut
	args = global.Args()
	if !*chaos && len(args) == 0 {
		return usageErr
	}
	recorder = nil
	if *debugAddr != "" || *stats || *chaos {
		recorder = obs.NewRecorder()
	}
	// Dump-on-fault: any panic classified at an API boundary flushes the
	// flight-recorder window before the error propagates. Nil-recorder
	// safe, so registration is unconditional for the command's duration.
	fherr.SetPanicHook(func(err error) {
		_ = recorder.DumpFlight(flightPath, "panic: "+err.Error())
	})
	defer fherr.SetPanicHook(nil)
	if *debugAddr != "" {
		dbg, err := obs.NewDebugServer(*debugAddr, recorder)
		if err != nil {
			return err
		}
		defer dbg.Shutdown(2 * time.Second)
		fmt.Fprintf(w, "debug server: http://%s/debug/pprof/ and http://%s/metrics\n", dbg.Addr, dbg.Addr)
	}
	err := func() error {
		if *chaos {
			return ChaosSmoke(w, *chaosOut)
		}
		return dispatch(args, w)
	}()
	if *stats {
		printStats(w, recorder)
	}
	return err
}

func dispatch(args []string, w io.Writer) error {
	switch args[0] {
	case "keygen":
		return keygen(args[1:], w)
	case "encrypt":
		return encrypt(args[1:], w)
	case "add":
		return binop(args[1:], w, "add")
	case "mul":
		return binop(args[1:], w, "mul")
	case "rotate":
		return rotate(args[1:], w)
	case "sum":
		return innerSum(args[1:], w)
	case "decrypt":
		return decrypt(args[1:], w)
	case "info":
		return info(args[1:], w)
	default:
		return fherr.Errorf(fherr.ErrUsage, "unknown subcommand %q", args[0])
	}
}

// printStats renders the -stats end-of-run summary: one row per
// latency histogram (count and percentiles in microseconds), then every
// counter and gauge. Memory gauges are refreshed immediately before the
// snapshot so the table reflects the run's final heap state.
func printStats(w io.Writer, r *obs.Recorder) {
	if r == nil {
		return
	}
	obs.PublishMemStats(r)
	s := r.Snapshot()
	fmt.Fprintf(w, "\n== telemetry (%d spans retained", len(s.Spans))
	if d := s.Counters[obs.DroppedSpansCounter]; d > 0 {
		fmt.Fprintf(w, ", %d dropped", d)
	}
	fmt.Fprint(w, ") ==\n")
	if len(s.Hists) > 0 {
		fmt.Fprintf(w, "%-28s %8s %10s %10s %10s %10s\n", "op", "count", "p50 us", "p95 us", "p99 us", "max us")
		names := make([]string, 0, len(s.Hists))
		for k := range s.Hists {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, name := range names {
			h := s.Hists[name]
			fmt.Fprintf(w, "%-28s %8d %10.1f %10.1f %10.1f %10.1f\n", name, h.Count,
				h.Quantile(0.50)/1e3, h.Quantile(0.95)/1e3, h.Quantile(0.99)/1e3, float64(h.Max)/1e3)
		}
	}
	printLedger(w, s)
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "%-40s %15s\n", "counter", "value")
		names := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%-40s %15d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "%-40s %15s\n", "gauge", "value")
		names := make([]string, 0, len(s.Gauges))
		for k := range s.Gauges {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%-40s %15.0f\n", name, s.Gauges[name])
		}
	}
}

// printLedger renders the per-op cost-ledger section of -stats: spans
// that carry a model prediction are grouped by op name, with predicted
// bytes (analytic model) next to the measured kernel-counter deltas.
func printLedger(w io.Writer, s obs.Snapshot) {
	type acc struct {
		count      int
		pred, meas uint64
	}
	byOp := map[string]*acc{}
	for _, sp := range s.Spans {
		pred, okP := sp.Attrs["pred.bytes"]
		meas, okM := sp.MeasuredBytes()
		if !okP || !okM || pred <= 0 {
			continue
		}
		a := byOp[sp.Name]
		if a == nil {
			a = &acc{}
			byOp[sp.Name] = a
		}
		a.count++
		a.pred += uint64(pred)
		a.meas += meas
	}
	if len(byOp) == 0 {
		return
	}
	names := make([]string, 0, len(byOp))
	for k := range byOp {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %8s %14s %14s %8s\n", "ledger op", "count", "pred bytes", "meas bytes", "delta")
	for _, name := range names {
		a := byOp[name]
		delta := 100 * (float64(a.meas) - float64(a.pred)) / float64(a.pred)
		fmt.Fprintf(w, "%-28s %8d %14d %14d %+7.1f%%\n", name, a.count, a.pred, a.meas, delta)
	}
}

// paramsFor rebuilds the parameter set from the sizes stored at keygen.
func paramsFor(logN, levels int) (*ckks.Parameters, error) {
	logQ := []int{50}
	for i := 0; i < levels; i++ {
		logQ = append(logQ, 40)
	}
	return ckks.NewParameters(ckks.ParametersLiteral{
		LogN: logN, LogQ: logQ, LogP: []int{50, 50}, LogScale: 40,
	})
}

// keyDir is the on-disk layout of a key directory.
type keyDir struct {
	dir    string
	params *ckks.Parameters
	logN   int
	levels int
}

func openKeyDir(dir string) (*keyDir, error) {
	meta, err := os.ReadFile(filepath.Join(dir, "params"))
	if err != nil {
		return nil, fmt.Errorf("reading key directory: %w (run `fhe keygen` first)", err)
	}
	var logN, levels int
	if _, err := fmt.Sscanf(string(meta), "logn=%d levels=%d", &logN, &levels); err != nil {
		return nil, fmt.Errorf("corrupt params file: %w", err)
	}
	params, err := paramsFor(logN, levels)
	if err != nil {
		return nil, err
	}
	return &keyDir{dir: dir, params: params, logN: logN, levels: levels}, nil
}

// secretKey regenerates the secret key from the stored seed. Storing the
// 32-byte seed instead of the expanded key keeps the client state tiny
// and is the same determinism that powers key compression.
func (k *keyDir) secretKey() (*ckks.SecretKey, error) {
	raw, err := os.ReadFile(filepath.Join(k.dir, "secret.seed"))
	if err != nil {
		return nil, err
	}
	if len(raw) != prng.SeedSize {
		return nil, fmt.Errorf("secret seed has %d bytes, want %d", len(raw), prng.SeedSize)
	}
	var seed [prng.SeedSize]byte
	copy(seed[:], raw)
	kg := ckks.NewKeyGenerator(k.params, prng.NewSource(seed))
	return kg.GenSecretKey(), nil
}

// evaluator loads the compressed evaluation keys.
func (k *keyDir) evaluator(needRotation int) (*ckks.Evaluator, error) {
	keys := &ckks.EvaluationKeySet{Galois: map[uint64]*ckks.GaloisKey{}}
	rlkFile, err := os.Open(filepath.Join(k.dir, "rlk.bin"))
	if err != nil {
		return nil, err
	}
	defer rlkFile.Close()
	swk, _, err := ckks.ReadSwitchingKey(rlkFile)
	if err != nil {
		return nil, fmt.Errorf("reading relinearization key: %w", err)
	}
	keys.Rlk = &ckks.RelinearizationKey{SwitchingKey: *swk}

	if needRotation != 0 {
		g := k.params.RingQ().GaloisElement(needRotation)
		name := fmt.Sprintf("rot%d.bin", needRotation)
		f, err := os.Open(filepath.Join(k.dir, name))
		if err != nil {
			return nil, fmt.Errorf("no key for rotation %d (re-run keygen with -rots including it): %w", needRotation, err)
		}
		defer f.Close()
		gswk, _, err := ckks.ReadSwitchingKey(f)
		if err != nil {
			return nil, err
		}
		keys.Galois[g] = &ckks.GaloisKey{GaloisEl: g, SwitchingKey: *gswk}
	}
	ev := ckks.NewEvaluator(k.params, keys, ckks.WithWorkers(workerCount))
	attachTelemetry(ev, k.params)
	return ev, nil
}

// attachTelemetry wires the shared recorder and, when the parameter set
// maps onto the analytic model, the cost ledger — so -stats can report
// predicted-vs-measured traffic per op. Parameter sets outside the
// model's domain (no dnum reproduces the special-limb count) simply run
// without predictions.
func attachTelemetry(ev *ckks.Evaluator, params *ckks.Parameters) {
	ev.SetRecorder(recorder)
	if m, err := ledger.ForParameters(params); err == nil {
		ev.SetCostModel(m)
	}
}

func keygen(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("keygen", flag.ContinueOnError)
	dir := fs.String("dir", "keys", "key directory to create")
	logN := fs.Int("logn", 12, "ring degree exponent (10-14)")
	levels := fs.Int("levels", 5, "multiplicative levels (1-12)")
	rots := fs.String("rots", "1,2,3,4", "comma-separated rotation steps to key")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logN < 10 || *logN > 14 {
		return fmt.Errorf("-logn %d outside [10,14]", *logN)
	}
	if *levels < 1 || *levels > 12 {
		return fmt.Errorf("-levels %d outside [1,12]", *levels)
	}
	params, err := paramsFor(*logN, *levels)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o700); err != nil {
		return err
	}

	// Secret key from a fresh stored seed.
	_, seed := prng.NewRandomSource()
	if err := os.WriteFile(filepath.Join(*dir, "secret.seed"), seed[:], 0o600); err != nil {
		return err
	}
	kg := ckks.NewKeyGenerator(params, prng.NewSource(seed))
	sk := kg.GenSecretKey()

	// Compressed evaluation keys.
	rlk := kg.GenRelinearizationKey(sk, true)
	if err := writeKeyFile(filepath.Join(*dir, "rlk.bin"), &rlk.SwitchingKey); err != nil {
		return err
	}
	var steps []int
	for _, tok := range splitCSV(*rots) {
		v, err := strconv.Atoi(tok)
		if err != nil || v == 0 {
			return fmt.Errorf("bad rotation step %q", tok)
		}
		steps = append(steps, v)
	}
	for _, step := range steps {
		g := params.RingQ().GaloisElement(step)
		gk := kg.GenGaloisKey(g, sk, true)
		if err := writeKeyFile(filepath.Join(*dir, fmt.Sprintf("rot%d.bin", step)), &gk.SwitchingKey); err != nil {
			return err
		}
	}

	if err := os.WriteFile(filepath.Join(*dir, "params"),
		[]byte(fmt.Sprintf("logn=%d levels=%d\n", *logN, *levels)), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "keys written to %s (N=2^%d, %d levels, rotations %v, compressed eval keys)\n",
		*dir, *logN, *levels, steps)
	return nil
}

func splitCSV(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func writeKeyFile(path string, k *ckks.SwitchingKey) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = k.WriteTo(f)
	return err
}

func encrypt(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("encrypt", flag.ContinueOnError)
	dir := fs.String("dir", "keys", "key directory")
	out := fs.String("out", "ct.bin", "output ciphertext file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fherr.Errorf(fherr.ErrUsage, "encrypt: no values given")
	}
	k, err := openKeyDir(*dir)
	if err != nil {
		return err
	}
	vals := make([]complex128, fs.NArg())
	for i, tok := range fs.Args() {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return fmt.Errorf("bad value %q", tok)
		}
		vals[i] = complex(v, 0)
	}
	sk, err := k.secretKey()
	if err != nil {
		return err
	}
	src, _ := prng.NewRandomSource()
	enc := ckks.NewEncoder(k.params)
	ct := ckks.NewSecretKeyEncryptor(k.params, sk, src).Encrypt(enc.Encode(vals))
	if err := writeCt(*out, ct); err != nil {
		return err
	}
	fmt.Fprintf(w, "encrypted %d values to %s (level %d)\n", len(vals), *out, ct.Level)
	return nil
}

func readCt(path string) (*ckks.Ciphertext, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ct ckks.Ciphertext
	if _, err := ct.ReadFrom(f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ct, nil
}

func writeCt(path string, ct *ckks.Ciphertext) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = ct.WriteTo(f)
	return err
}

func binop(args []string, w io.Writer, op string) error {
	fs := flag.NewFlagSet(op, flag.ContinueOnError)
	dir := fs.String("dir", "keys", "key directory")
	out := fs.String("out", op+".bin", "output ciphertext file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fherr.Errorf(fherr.ErrUsage, "%s: need exactly two ciphertext files", op)
	}
	k, err := openKeyDir(*dir)
	if err != nil {
		return err
	}
	a, err := readCt(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readCt(fs.Arg(1))
	if err != nil {
		return err
	}
	ev, err := k.evaluator(0)
	if err != nil {
		return err
	}
	// The checked boundary rejects malformed or mismatched ciphertext
	// files with a typed error instead of crashing the process.
	site, core := "ckks.Add", (*ckks.Evaluator).Add
	if op == "mul" {
		site, core = "ckks.Mul", (*ckks.Evaluator).Mul
	}
	res, err := ev.Do(context.Background(), site, func(ev *ckks.Evaluator) *ckks.Ciphertext {
		return core(ev, a, b)
	}, a, b)
	if err != nil {
		return err
	}
	if err := writeCt(*out, res); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s -> %s (level %d)\n", op, *out, res.Level)
	return nil
}

func rotate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rotate", flag.ContinueOnError)
	dir := fs.String("dir", "keys", "key directory")
	out := fs.String("out", "rot.bin", "output ciphertext file")
	by := fs.Int("by", 1, "rotation step")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fherr.Errorf(fherr.ErrUsage, "rotate: need one ciphertext file")
	}
	k, err := openKeyDir(*dir)
	if err != nil {
		return err
	}
	ct, err := readCt(fs.Arg(0))
	if err != nil {
		return err
	}
	ev, err := k.evaluator(*by)
	if err != nil {
		return err
	}
	res, err := ev.Do(context.Background(), "ckks.Rotate", func(ev *ckks.Evaluator) *ckks.Ciphertext {
		return ev.Rotate(ct, *by)
	}, ct)
	if err != nil {
		return err
	}
	if err := writeCt(*out, res); err != nil {
		return err
	}
	fmt.Fprintf(w, "rotate by %d -> %s (level %d)\n", *by, *out, res.Level)
	return nil
}

func decrypt(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("decrypt", flag.ContinueOnError)
	dir := fs.String("dir", "keys", "key directory")
	slots := fs.Int("slots", 8, "how many slots to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fherr.Errorf(fherr.ErrUsage, "decrypt: need one ciphertext file")
	}
	k, err := openKeyDir(*dir)
	if err != nil {
		return err
	}
	ct, err := readCt(fs.Arg(0))
	if err != nil {
		return err
	}
	sk, err := k.secretKey()
	if err != nil {
		return err
	}
	enc := ckks.NewEncoder(k.params)
	vals := enc.Decode(ckks.NewDecryptor(k.params, sk).DecryptToPlaintext(ct))
	n := min(*slots, len(vals))
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "slot %3d: %+.6f\n", i, real(vals[i]))
	}
	return nil
}

func info(args []string, w io.Writer) error {
	if len(args) != 1 {
		return fherr.Errorf(fherr.ErrUsage, "info: need one ciphertext file")
	}
	ct, err := readCt(args[0])
	if err != nil {
		return err
	}
	st, err := os.Stat(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: level %d, %d limbs x %d coefficients, scale 2^%.1f, %d bytes\n",
		args[0], ct.Level, ct.C0.Level()+1, len(ct.C0.Coeffs[0]), math.Log2(ct.Scale), st.Size())
	return nil
}

// innerSum folds the first -n slots with the rotate-and-sum ladder; the
// key directory must hold rotation keys for the powers of two below n.
func innerSum(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sum", flag.ContinueOnError)
	dir := fs.String("dir", "keys", "key directory")
	out := fs.String("out", "sum.bin", "output ciphertext file")
	n := fs.Int("n", 4, "slot count to fold (power of two)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fherr.Errorf(fherr.ErrUsage, "sum: need one ciphertext file")
	}
	if *n < 1 || *n&(*n-1) != 0 {
		return fherr.Errorf(fherr.ErrUsage, "sum: -n %d is not a power of two", *n)
	}
	k, err := openKeyDir(*dir)
	if err != nil {
		return err
	}
	ct, err := readCt(fs.Arg(0))
	if err != nil {
		return err
	}
	keys := &ckks.EvaluationKeySet{Galois: map[uint64]*ckks.GaloisKey{}}
	for _, step := range ckks.InnerSumRotations(*n) {
		f, err := os.Open(filepath.Join(k.dir, fmt.Sprintf("rot%d.bin", step)))
		if err != nil {
			return fmt.Errorf("sum over %d slots needs rotation key %d: %w", *n, step, err)
		}
		swk, _, err := ckks.ReadSwitchingKey(f)
		f.Close()
		if err != nil {
			return err
		}
		g := k.params.RingQ().GaloisElement(step)
		keys.Galois[g] = &ckks.GaloisKey{GaloisEl: g, SwitchingKey: *swk}
	}
	ev := ckks.NewEvaluator(k.params, keys, ckks.WithWorkers(workerCount))
	attachTelemetry(ev, k.params)
	res, err := ev.Do(context.Background(), "ckks.InnerSum", func(ev *ckks.Evaluator) *ckks.Ciphertext {
		return ev.InnerSum(ct, *n)
	}, ct)
	if err != nil {
		return err
	}
	if err := writeCt(*out, res); err != nil {
		return err
	}
	fmt.Fprintf(w, "inner sum over %d slots -> %s (slot 0 holds the total)\n", *n, *out)
	return nil
}
