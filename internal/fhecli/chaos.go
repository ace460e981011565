package fhecli

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/cmplx"
	"os"

	"repro/internal/ckks"
	"repro/internal/faultinject"
	"repro/internal/fherr"
	"repro/internal/prng"
)

// ChaosSmoke runs the fault-injection smoke suite: an in-memory
// encrypt → compute pipeline with one fault armed per run, asserting
// that every fault class internal/faultinject can inject is either
// detected at an op boundary with a typed error, or provably harmless
// (the corrupted bits never reach the result). It is the deployable
// form of the chaos test suite — runnable against a production build
// with `fhe -chaos` — and writes a machine-readable report to outPath.
func ChaosSmoke(w io.Writer, outPath string) error {
	report, err := runChaos()
	if err != nil {
		return err
	}
	for _, c := range report.Cases {
		fmt.Fprintf(w, "chaos: %-28s %-20s fired=%d %s\n", c.Class, c.Site, c.Fired, c.Outcome)
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "chaos: report written to %s\n", outPath)
	// Flush the flight-recorder window covering the whole suite: the
	// spans and counters leading up to (and through) every injected
	// fault. Individual recovered panics already dumped via the fherr
	// hook; this final dump supersedes those with the complete window.
	reason := fmt.Sprintf("chaos: %d fault classes exercised, %d escaped", len(report.Cases), report.Escaped)
	if err := recorder.DumpFlight(flightPath, reason); err != nil {
		return err
	} else if recorder != nil {
		fmt.Fprintf(w, "chaos: flight recorder dump written to %s\n", flightPath)
	}
	if report.Escaped > 0 {
		return fmt.Errorf("chaos: %d fault class(es) neither detected nor harmless", report.Escaped)
	}
	fmt.Fprintf(w, "chaos: all %d fault classes accounted for\n", len(report.Cases))
	return nil
}

// chaosCase is one fault class exercised by the suite.
type chaosCase struct {
	Class     string `json:"class"`
	Site      string `json:"site"`
	Integrity bool   `json:"integrity"`
	Fired     int    `json:"fired"`
	Detected  bool   `json:"detected"`
	Harmless  bool   `json:"harmless"`
	Outcome   string `json:"outcome"`
	Error     string `json:"error,omitempty"`
}

type chaosReport struct {
	Params  string      `json:"params"`
	Cases   []chaosCase `json:"cases"`
	Escaped int         `json:"escaped"`
}

func runChaos() (*chaosReport, error) {
	// Every op under test crosses the checked boundary through the op
	// table, where faults are injected and detected.
	ctx := context.Background()
	apply := func(ev *ckks.Evaluator, name string, x, y *ckks.Ciphertext, by int) (*ckks.Ciphertext, error) {
		op, err := ckks.LookupOp(name)
		if err != nil {
			return nil, err
		}
		return ev.Apply(ctx, op, x, y, by)
	}

	params, err := paramsFor(10, 3)
	if err != nil {
		return nil, err
	}
	src, _ := prng.NewRandomSource()
	kg := ckks.NewKeyGenerator(params, src)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk, false)
	gks := kg.GenRotationKeys([]int{1, 2}, sk, false)
	fi := faultinject.New()
	ev := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Rlk: rlk, Galois: gks},
		ckks.WithWorkers(workerCount), ckks.WithFaultInjector(fi))
	ev.SetRecorder(recorder)
	ev.SetIntegrity(true)

	enc := ckks.NewEncoder(params)
	encSk := ckks.NewSecretKeyEncryptor(params, sk, src)
	msg := make([]complex128, params.Slots())
	for i := range msg {
		msg[i] = complex(float64(i%17)*0.125-1, 0)
	}
	a := encSk.Encrypt(enc.Encode(msg))
	b := encSk.Encrypt(enc.Encode(msg))

	report := &chaosReport{
		Params: fmt.Sprintf("logn=%d levels=%d", params.LogN(), a.Level),
	}
	record := func(c chaosCase) {
		if c.Detected {
			c.Outcome = "detected"
		} else if c.Harmless {
			c.Outcome = "harmless"
		} else {
			c.Outcome = "ESCAPED"
			report.Escaped++
		}
		report.Cases = append(report.Cases, c)
	}

	// Output-site corruption: fault the Mul result, let the next op's
	// operand validation catch it. The reference product is computed
	// before arming, so the only Add failure mode is the injected fault.
	ref, err := apply(ev, "mul", a, b, 0)
	if err != nil {
		return nil, err
	}
	outputFaults := []struct {
		class string
		fault faultinject.Fault
		want  error
	}{
		{"bit-flip", faultinject.Fault{Site: "ckks.Mul.c0", Kind: faultinject.KindBitFlip, Limb: 1, Coeff: 17, Bit: 41}, fherr.ErrChecksum},
		{"zero-limb", faultinject.Fault{Site: "ckks.Mul.c0", Kind: faultinject.KindZeroLimb, Limb: 2}, fherr.ErrChecksum},
		{"truncate-limbs", faultinject.Fault{Site: "ckks.Mul.c1", Kind: faultinject.KindTruncateLimbs, Keep: 1}, fherr.ErrLevelMismatch},
		{"toggle-ntt", faultinject.Fault{Site: "ckks.Mul.c0", Kind: faultinject.KindToggleNTT}, fherr.ErrNTTDomain},
		{"corrupt-scale", faultinject.Fault{Site: "ckks.Mul.scale", Kind: faultinject.KindCorruptScale}, fherr.ErrChecksum},
	}
	for _, of := range outputFaults {
		fi.Reset()
		fi.Arm(of.fault)
		c := chaosCase{Class: of.class, Site: of.fault.Site, Integrity: true}
		x, err := apply(ev, "mul", a, b, 0)
		c.Fired = len(fi.Events())
		if err != nil {
			// The op itself failed; an output-site fault should not do
			// that, so this counts as escaped with the error on record.
			c.Error = err.Error()
			record(c)
			continue
		}
		_, err = apply(ev, "add", x, ref, 0)
		if err != nil {
			c.Error = err.Error()
			c.Detected = errors.Is(err, of.want)
		}
		record(c)
	}

	// Key-digit corruption: truncating a switching-key digit in place
	// breaks the kernel's limb indexing; the panic must be recovered
	// into a typed error and the evaluator must stay usable.
	fi.Reset()
	fi.Arm(faultinject.Fault{Site: "ckks.ksk.digitB", Kind: faultinject.KindTruncateLimbs, Keep: 1})
	c := chaosCase{Class: "key-digit-truncate", Site: "ckks.ksk.digitB", Integrity: true}
	_, err = apply(ev, "rotate", a, nil, 1)
	c.Fired = len(fi.Events())
	if err != nil {
		c.Error = err.Error()
		c.Detected = errors.Is(err, fherr.ErrInternal)
	}
	fi.Reset()
	if _, rerr := apply(ev, "rotate", a, nil, 2); rerr != nil {
		c.Detected = false
		c.Error = fmt.Sprintf("evaluator unusable after recovery: %v", rerr)
	}
	record(c)

	// Vault-digit corruption: the fault lands while the key vault
	// materializes a switching-key digit from its seed, so the corrupted
	// expansion is cached and every later hit serves it. The wrong result
	// is validly sealed — key corruption is invisible to ciphertext
	// checksums and structural checks — so the detection layer of record
	// is decrypt-compare (the same probe bootstrap's precision guard
	// runs), and the recovery action is FlushKeyVault: rematerialization
	// from the seed restores bit-identical clean behavior.
	gksC := kg.GenGaloisKeys([]int{1}, sk)
	evV := ckks.NewEvaluator(params, &ckks.EvaluationKeySet{Galois: gksC},
		ckks.WithWorkers(workerCount), ckks.WithFaultInjector(fi))
	evV.SetRecorder(recorder)
	dec := ckks.NewDecryptor(params, sk)
	fi.Reset()
	cleanRot := evV.Rotate(a, 1)
	evV.FlushKeyVault() // drop the clean expansions so the fault can land
	fi.Arm(faultinject.Fault{Site: "ckks.keyvault.digitA", Kind: faultinject.KindBitFlip, Limb: 0, Coeff: 7, Bit: 33})
	c = chaosCase{Class: "vault-digit-bit-flip", Site: "ckks.keyvault.digitA"}
	bad, err := apply(evV, "rotate", a, nil, 1)
	c.Fired = len(fi.Events())
	if err != nil {
		c.Error = err.Error()
	} else {
		cleanVals := enc.Decode(dec.DecryptToPlaintext(cleanRot))
		badVals := enc.Decode(dec.DecryptToPlaintext(bad))
		var worst float64
		for i := range cleanVals {
			if d := cmplx.Abs(cleanVals[i] - badVals[i]); d > worst {
				worst = d
			}
		}
		// A single flipped key bit scrambles the key-switch completely;
		// anything close to the clean run means the probe missed it.
		c.Detected = worst >= 1
		if !c.Detected {
			c.Error = fmt.Sprintf("decrypt-compare maxerr %.3g — corruption escaped the probe", worst)
		}
	}
	fi.Reset()
	evV.FlushKeyVault()
	if rec2, rerr := apply(evV, "rotate", a, nil, 1); rerr != nil {
		c.Detected = false
		c.Error = fmt.Sprintf("evaluator unusable after vault flush: %v", rerr)
	} else if !rec2.C0.Equal(cleanRot.C0) || !rec2.C1.Equal(cleanRot.C1) {
		c.Detected = false
		c.Error = "vault flush did not restore clean key material"
	}
	record(c)

	// Provably harmless: a bit flip confined to the top limb followed
	// by a DropLevel below it cannot affect the result — the dropped
	// ciphertext must be bit-identical to the clean run. Integrity is
	// off here: with it on the flip would be detected instead, and the
	// point of this class is harmlessness, not detection.
	ev.SetIntegrity(false)
	fi.Reset()
	clean := ev.DropLevel(ev.Add(a, b), a.Level-1)
	fi.Arm(faultinject.Fault{Site: "ckks.Add.c0", Kind: faultinject.KindBitFlip, Limb: 1 << 30, Coeff: 12, Bit: 3})
	c = chaosCase{Class: "top-limb-flip-then-drop", Site: "ckks.Add.c0"}
	x, err := apply(ev, "add", a, b, 0)
	c.Fired = len(fi.Events())
	if err != nil {
		c.Error = err.Error()
	} else if dropped, derr := apply(ev, "droplevel", x, nil, x.Level-1); derr != nil {
		c.Error = derr.Error()
	} else {
		c.Harmless = dropped.C0.Equal(clean.C0) && dropped.C1.Equal(clean.C1)
	}
	record(c)

	return report, nil
}
