// Package search implements SimFHE's brute-force CKKS parameter
// exploration (§4.1–4.2): on a 32 MB reference system it sweeps the
// secure parameter space (limb size, chain length, dnum, fftIter) and
// ranks parameter sets by the bootstrapping throughput metric of
// Eq. (3). This reproduces how the paper derived its Table 5 "Ours" row.
package search

import (
	"sort"

	"repro/internal/simfhe"
	"repro/internal/simfhe/design"
)

// The swept space: the paper's ring degree, limb sizes 30–58 bits, up
// to six digits and fftIter 1–8, keeping only chains that leave at
// least six limbs after bootstrapping.
const (
	logN          = 17
	logQMin       = 30
	logQMax       = 58
	dnumMax       = 6
	fftIterMax    = 8
	minLimbsAfter = 6
)

// Candidate is one evaluated parameter set.
type Candidate struct {
	Params     simfhe.Params
	LogQ1      int
	RuntimeMs  float64
	Throughput float64
}

// run sweeps the space and returns all secure, feasible candidates
// sorted by descending throughput on referenceDesign with every MAD
// optimization enabled, as the paper does for its optimal-parameter
// search.
func run() []Candidate {
	d, opts := referenceDesign(), simfhe.AllOpts()
	maxQP := simfhe.MaxLogQP(logN)

	var out []Candidate
	for logQ := logQMin; logQ <= logQMax; logQ++ {
		for dnum := 1; dnum <= dnumMax; dnum++ {
			// Largest secure L for this (logQ, dnum).
			for L := 4; ; L++ {
				p := simfhe.Params{LogN: logN, LogQ: logQ, L: L, Dnum: dnum,
					SineDegree: 31, DoubleAngle: 2, FFTIter: 1}
				if p.TotalLogQP() > maxQP {
					break
				}
				for fftIter := 1; fftIter <= fftIterMax; fftIter++ {
					p.FFTIter = fftIter
					if p.Validate() != nil || !p.IsSecure() {
						continue
					}
					if p.BootPlan().LevelAfter+1 < minLimbsAfter {
						continue
					}
					res := design.RunBootstrap(d, p, opts)
					out = append(out, Candidate{
						Params:     p,
						LogQ1:      res.LogQ1,
						RuntimeMs:  res.RuntimeMs,
						Throughput: res.Throughput,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Throughput > out[j].Throughput })
	return out
}

// Best returns the throughput-maximizing candidate of the sweep.
func Best() Candidate { return run()[0] }

// referenceDesign is the system the Table 5 search is run against: 32 MB
// of on-chip memory and 1 TB/s of bandwidth (the common ASIC setting of
// Table 6), with an ample multiplier budget so the search explores the
// memory-bound frontier the paper's analysis focuses on.
func referenceDesign() design.Design {
	return design.Design{
		Name: "reference-32MB", Multipliers: 20480, OnChipMB: 32,
		BandwidthGBps: 1000, FreqGHz: 1,
	}
}
