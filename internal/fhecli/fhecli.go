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
	"strings"

	"repro/internal/ckks"
	"repro/internal/fherr"
	"repro/internal/obs"
	"repro/internal/prng"
)

// recorder, when non-nil (armed by a leading -stats flag), is attached
// to every evaluator the subcommands build, so the -stats summary table
// sees the ckks.* spans and counters of the operation in flight.
var recorder *obs.Recorder

// workerCount is the evaluator parallelism selected by the leading
// -workers flag: 1 is serial, ≤ 0 selects GOMAXPROCS. Results are
// bit-identical regardless of the setting.
var workerCount = 1

// Run dispatches the subcommand. A leading -workers N parallelizes the
// evaluator across N goroutines; a leading -stats prints an end-of-run
// telemetry table (latency percentiles per op, counters, memory
// gauges). Every name in the ckks op table is a subcommand (see
// evalCmd). Output goes to w; errors are returned, typed so the caller
// can map them to exit codes with fherr.ExitCode.
func Run(args []string, w io.Writer) error {
	usageErr := fherr.Errorf(fherr.ErrUsage,
		"usage: fhe [-workers N] [-stats] {keygen|encrypt|decrypt|info|%s|sum} [flags]",
		strings.Join(ckks.OpNames(), "|"))
	global := flag.NewFlagSet("fhe", flag.ContinueOnError)
	workers := global.Int("workers", 1, "evaluator goroutines (0 = all cores); results are bit-identical at any setting")
	stats := global.Bool("stats", false, "print an end-of-run telemetry summary (op latency percentiles, counters, memory gauges)")
	global.SetOutput(io.Discard)
	if err := global.Parse(args); err != nil || global.NArg() == 0 {
		return usageErr
	}
	workerCount = *workers
	recorder = nil
	if *stats {
		recorder = obs.NewRecorder()
	}
	err := dispatch(global.Args(), w)
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
	case "decrypt":
		return decrypt(args[1:], w)
	case "info":
		return info(args[1:], w)
	default:
		return evalCmd(args[0], args[1:], w)
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

// paramsFor rebuilds the parameter set from the sizes stored at keygen.
// It owns the bounds, so keygen's flags and a key directory's params
// file share one check, and a corrupt file is refused before it sizes a
// modulus chain or any key file is read.
func paramsFor(logN, levels int) (*ckks.Parameters, error) {
	if logN < 10 || logN > 14 {
		return nil, fmt.Errorf("logn %d outside [10,14]", logN)
	}
	if levels < 1 || levels > 12 {
		return nil, fmt.Errorf("levels %d outside [1,12]", levels)
	}
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
	return &keyDir{dir: dir, params: params}, nil
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

// evaluator loads every evaluation key in the directory: the
// relinearization key and each rot<k>.bin rotation key. The keys are
// seed-compressed, so the vault expands only the digits an op uses; an
// op whose key is absent fails in the library with fherr.ErrKeyMissing.
func (k *keyDir) evaluator() (*ckks.Evaluator, error) {
	rlk, err := readKeyFile(filepath.Join(k.dir, "rlk.bin"))
	if err != nil {
		return nil, fmt.Errorf("reading relinearization key: %w", err)
	}
	keys := &ckks.EvaluationKeySet{
		Rlk:    &ckks.RelinearizationKey{SwitchingKey: *rlk},
		Galois: map[uint64]*ckks.GaloisKey{},
	}
	entries, err := os.ReadDir(k.dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		var step int
		if _, err := fmt.Sscanf(e.Name(), "rot%d.bin", &step); err != nil || e.Name() != fmt.Sprintf("rot%d.bin", step) {
			continue
		}
		swk, err := readKeyFile(filepath.Join(k.dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", e.Name(), err)
		}
		g := k.params.RingQ().GaloisElement(step)
		keys.Galois[g] = &ckks.GaloisKey{GaloisEl: g, SwitchingKey: *swk}
	}
	ev := ckks.NewEvaluator(k.params, keys, ckks.WithWorkers(workerCount))
	ev.SetRecorder(recorder)
	return ev, nil
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

func readKeyFile(path string) (*ckks.SwitchingKey, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	swk, _, err := ckks.ReadSwitchingKey(f)
	return swk, err
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

// evalCmd runs one op-table entry as a subcommand,
//
//	fhe <op> [-dir keys] [-out <op>.bin] [-by N] a.bin [b.bin]
//
// with two ciphertext files for a binary op and one otherwise. `sum -n`
// is the CLI's spelling of `innersum -by`. The checked boundary rejects
// malformed or mismatched ciphertext files, a missing rotation key and a
// bad inner-sum width with the library's typed errors.
func evalCmd(name string, args []string, w io.Writer) error {
	opName, byFlag, byDefault := name, "by", 1
	if name == "sum" {
		opName, byFlag, byDefault = "innersum", "n", 4
	}
	op, err := ckks.LookupOp(opName)
	if err != nil {
		return fherr.Errorf(fherr.ErrUsage, "unknown subcommand %q", name)
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	dir := fs.String("dir", "keys", "key directory")
	out := fs.String("out", name+".bin", "output ciphertext file")
	by := fs.Int(byFlag, byDefault, "rotation step, inner-sum width or target level (other ops ignore it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arity := 1
	if op.Binary {
		arity = 2
	}
	if fs.NArg() != arity {
		return fherr.Errorf(fherr.ErrUsage, "%s: need %d ciphertext file(s)", name, arity)
	}
	k, err := openKeyDir(*dir)
	if err != nil {
		return err
	}
	cts := make([]*ckks.Ciphertext, 2)
	for i, path := range fs.Args() {
		if cts[i], err = readCt(path); err != nil {
			return err
		}
	}
	ev, err := k.evaluator()
	if err != nil {
		return err
	}
	res, err := ev.Apply(context.Background(), op, cts[0], cts[1], *by)
	if err != nil {
		return err
	}
	if err := writeCt(*out, res); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s -> %s (level %d)\n", name, *out, res.Level)
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
