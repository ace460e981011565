package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/calib"
	"repro/internal/fherr"
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
// spans (internal/calib).
func validateCmd(args []string) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
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
	fs.Parse(args)

	rep, err := calib.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(fherr.ExitCode(err))
	}
	rep.WriteTable(os.Stdout)
	pass := rep.Gate()
	if pass {
		fmt.Println("\nvalidation: PASS (gated rows within tolerance, toggle directions reproduced)")
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
