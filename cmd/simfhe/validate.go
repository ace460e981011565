package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/calib"
)

// validateReport is the machine-readable form of `simfhe validate`.
type validateReport struct {
	Meta   runMeta       `json:"meta"`
	Pass   bool          `json:"pass"`
	Report *calib.Report `json:"report"`
}

// validateCmd runs the functional evaluator side-by-side with the
// analytic model: it traces real homomorphic ops through the cache
// simulator and compares measured DRAM traffic against the model's
// prediction at the same parameters (internal/calib).
func validateCmd(args []string) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	def := calib.DefaultConfig()
	logN := fs.Int("logn", def.LogN, "ring degree exponent")
	limbs := fs.Int("limbs", def.Limbs, "ciphertext limb count (model L)")
	dnum := fs.Int("dnum", def.Dnum, "key-switching digit count")
	cacheLimbs := fs.Int("cache-limbs", def.CacheLimbs, "simulated on-chip capacity, in limbs of 8*N bytes")
	line := fs.Int("line", def.LineBytes, "cache line size in bytes")
	ways := fs.Int("ways", def.Ways, "cache set associativity")
	tol := fs.Float64("tol", def.Tolerance, "relative tolerance for the gating rows (0.20 = ±20%)")
	diags := fs.Int("diags", def.Diags, "plaintext matrix diagonal count")
	rotations := fs.Int("rotations", def.Rotations, "hoisted-rotation fan-out")
	boot := fs.Bool("boot", false, "also trace one full bootstrap, reported per phase (informational)")
	out := fs.String("out", "", "write the calibration report as JSON (- for stdout)")
	metricsOut := fs.String("metrics-out", "", "write measured/modeled byte counters as Prometheus text")
	strict := fs.Bool("strict", false, "exit nonzero when a gating row or toggle fails")
	fs.Parse(args)

	cfg := calib.Config{
		LogN: *logN, Limbs: *limbs, Dnum: *dnum,
		CacheLimbs: *cacheLimbs, LineBytes: *line, Ways: *ways,
		Tolerance: *tol,
		Diags:     *diags, Rotations: *rotations,
		Bootstrap: *boot,
	}
	rep, err := calib.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(1)
	}
	rep.WriteTable(os.Stdout)
	pass := rep.AllWithinTolerance()
	if pass {
		fmt.Println("\nvalidation: PASS (gating rows within tolerance, toggle directions reproduced)")
	} else {
		fmt.Println("\nvalidation: FAIL (see rows above; deviations are discussed in docs/OBSERVABILITY.md)")
	}

	if *out != "" {
		writeBenchJSON(validateReport{
			Meta: collectMeta(fmt.Sprintf("logN=%d limbs=%d dnum=%d cacheLimbs=%d", cfg.LogN, cfg.Limbs, cfg.Dnum, cfg.CacheLimbs)),
			Pass: pass, Report: rep,
		}, *out)
	}
	exportObs("", *metricsOut, nil, rep.Counters())
	if *strict && !pass {
		os.Exit(1)
	}
}
