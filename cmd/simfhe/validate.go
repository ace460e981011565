package main

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/calib"
)

// validateReport is the machine-readable form of `simfhe validate`.
type validateReport struct {
	Meta   runMeta       `json:"meta"`
	Pass   bool          `json:"pass"`
	Report *calib.Report `json:"report"`
}

// validateCmd runs the functional evaluator side-by-side with the
// analytic model: it traces real homomorphic ops — calibration probes and
// one bootstrap — through the cache simulator and compares measured DRAM
// traffic against the cost ledger's prediction for the same top-level op
// spans (internal/calib). With -out -, stdout carries only the JSON
// report, and the table and verdict go to stderr.
func validateCmd(args []string, w io.Writer) error {
	fs := newFlagSet("validate")
	cfg := calib.DefaultConfig()
	fs.IntVar(&cfg.LogN, "logn", cfg.LogN, "ring degree exponent")
	fs.IntVar(&cfg.Limbs, "limbs", cfg.Limbs, "calibration-chain limb count (model L)")
	fs.IntVar(&cfg.Dnum, "dnum", cfg.Dnum, "calibration-chain key-switching digit count")
	fs.IntVar(&cfg.CacheLimbs, "cache-limbs", cfg.CacheLimbs, "simulated on-chip capacity, in limbs of 8*N bytes")
	fs.IntVar(&cfg.LineBytes, "line", cfg.LineBytes, "cache line size in bytes")
	fs.IntVar(&cfg.Ways, "ways", cfg.Ways, "cache set associativity")
	fs.Float64Var(&cfg.Tolerance, "tol", cfg.Tolerance, "relative tolerance of every gated row (0.20 = ±20%); must be positive")
	fs.IntVar(&cfg.Diags, "diags", cfg.Diags, "plaintext matrix diagonal count")
	fs.IntVar(&cfg.Rotations, "rotations", cfg.Rotations, "hoisted-rotation fan-out")
	out := fs.String("out", "", "write the report as JSON (- for stdout)")
	metricsOut := fs.String("metrics-out", "", "write predicted/measured byte counters as Prometheus text")
	strict := fs.Bool("strict", false, "exit nonzero when a gated row or toggle fails")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	rep, err := calib.Run(cfg)
	if err != nil {
		return fmt.Errorf("validate: %w", err)
	}
	table := w
	if *out == "-" {
		table = stderr
	}
	rep.WriteTable(table)
	pass := rep.Gate()
	if pass {
		fmt.Fprintln(table, "\nvalidation: PASS (gated rows within tolerance, toggle directions reproduced)")
	} else {
		fmt.Fprintln(table, "\nvalidation: FAIL (see rows above; deviations are discussed in docs/OBSERVABILITY.md)")
	}

	if *out != "" {
		err := writeReport(w, validateReport{
			Meta: collectMeta(fmt.Sprintf("logN=%d limbs=%d dnum=%d cacheLimbs=%d", cfg.LogN, cfg.Limbs, cfg.Dnum, cfg.CacheLimbs)),
			Pass: pass, Report: rep,
		}, *out)
		if err != nil {
			return err
		}
	}
	if err := exportObs("", *metricsOut, nil, rep.Counters()); err != nil {
		return err
	}
	if *strict && !pass {
		return errors.New("validate: a gated row or toggle failed (-strict)")
	}
	return nil
}
