package design

import (
	"testing"

	"repro/internal/simfhe"
)

func TestBalanceFactorDirections(t *testing.T) {
	// A memory-starved workload on a compute monster: factor < 1 means
	// memory-bound.
	d := Design{Name: "t", Multipliers: 100000, BandwidthGBps: 10, FreqGHz: 1}
	c := simfhe.Cost{MulMod: 1e9, CtRead: 1e12}
	if f := BalanceFactor(d, c); f >= 1 {
		t.Errorf("factor %v for a memory-bound case, want < 1", f)
	}
	// The inverse.
	d2 := Design{Name: "t2", Multipliers: 10, BandwidthGBps: 10000, FreqGHz: 1}
	c2 := simfhe.Cost{MulMod: 1e10, CtRead: 1e12}
	if f := BalanceFactor(d2, c2); f <= 1 {
		t.Errorf("factor %v for a compute-bound case, want > 1", f)
	}
}

func TestZeroCostEdgeCases(t *testing.T) {
	d := BTS
	if BalanceFactor(d, simfhe.Cost{}) != 0 {
		t.Error("zero cost should report factor 0")
	}
}
