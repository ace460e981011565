// Package search implements SimFHE's brute-force CKKS parameter
// exploration (§4.1–4.2): given an on-chip memory budget and a hardware
// design point, it sweeps the secure parameter space (limb size, chain
// length, dnum, fftIter) and ranks parameter sets by the bootstrapping
// throughput metric of Eq. (3). This reproduces how the paper derived its
// Table 5 "Ours" row.
package search

import (
	"sort"

	"repro/internal/simfhe"
	"repro/internal/simfhe/design"
)

// Space bounds the brute-force sweep. Zero values take defaults.
type Space struct {
	LogN     int   // ring degree (default 17, the paper's)
	LogQMin  int   // smallest limb size (default 30)
	LogQMax  int   // largest limb size (default 58)
	DnumMax  int   // largest digit count (default 6)
	FFTIters []int // candidate fftIter values (default 1..8)

	MinLimbsAfter int // minimum useful levels after bootstrapping (default 6)
}

func (s Space) withDefaults() Space {
	if s.LogN == 0 {
		s.LogN = 17
	}
	if s.LogQMin == 0 {
		s.LogQMin = 30
	}
	if s.LogQMax == 0 {
		s.LogQMax = 58
	}
	if s.DnumMax == 0 {
		s.DnumMax = 6
	}
	if s.FFTIters == nil {
		s.FFTIters = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if s.MinLimbsAfter == 0 {
		s.MinLimbsAfter = 6
	}
	return s
}

// Candidate is one evaluated parameter set.
type Candidate struct {
	Params     simfhe.Params
	LogQ1      int
	RuntimeMs  float64
	Throughput float64
}

// Run sweeps the space and returns all secure, feasible candidates sorted
// by descending throughput on the given design (cache size and bandwidth
// taken from the design; all MAD optimizations enabled, as the paper does
// for its optimal-parameter search).
func Run(space Space, d design.Design, opts simfhe.OptSet) []Candidate {
	space = space.withDefaults()
	maxQP := simfhe.MaxLogQP(space.LogN)

	var out []Candidate
	for logQ := space.LogQMin; logQ <= space.LogQMax; logQ++ {
		for dnum := 1; dnum <= space.DnumMax; dnum++ {
			// Largest secure L for this (logQ, dnum).
			for L := 4; ; L++ {
				p := simfhe.Params{LogN: space.LogN, LogQ: logQ, L: L, Dnum: dnum,
					SineDegree: 31, DoubleAngle: 2, FFTIter: 1}
				if p.TotalLogQP() > maxQP {
					break
				}
				for _, fftIter := range space.FFTIters {
					p.FFTIter = fftIter
					if p.Validate() != nil || !p.IsSecure() {
						continue
					}
					if p.BootPlan().LevelAfter+1 < space.MinLimbsAfter {
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

// Best returns the throughput-maximizing candidate, or false when the
// space contains no feasible point.
func Best(space Space, d design.Design, opts simfhe.OptSet) (Candidate, bool) {
	all := Run(space, d, opts)
	if len(all) == 0 {
		return Candidate{}, false
	}
	return all[0], true
}

// ReferenceDesign is the system the Table 5 search is run against: 32 MB
// of on-chip memory and 1 TB/s of bandwidth (the common ASIC setting of
// Table 6), with an ample multiplier budget so the search explores the
// memory-bound frontier the paper's analysis focuses on.
func ReferenceDesign() design.Design {
	return design.Design{
		Name: "reference-32MB", Multipliers: 20480, OnChipMB: 32,
		BandwidthGBps: 1000, FreqGHz: 1,
	}
}
