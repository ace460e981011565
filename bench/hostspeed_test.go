package main

import "testing"

// The reference kernel is the yardstick of every wall-clock metric: an
// edit that changes what it computes must not pass for a change of the
// host. Its state after three ticks, which wrap around its limbs, is pinned.
func TestRefKernelIsFrozen(t *testing.T) {
	k := newRefKernel()
	for i := 0; i < 3; i++ {
		k.tick()
	}
	const want = 0xb4847f7c7a2118cc
	if got := k.checksum(); got != want {
		t.Errorf("reference kernel checksum = %#x, want %#x: the kernel was edited; "+
			"times measured before and after the edit cannot be compared", got, uint64(want))
	}
}

// Lazy reduction keeps every word below 4q however often the kernel runs,
// so a tick does the same work on every call.
func TestRefKernelStaysInRange(t *testing.T) {
	k := newRefKernel()
	for i := 0; i < 10; i++ {
		k.tick()
	}
	for _, limb := range k.limbs {
		for j, v := range limb {
			if v >= 4*refModulus {
				t.Fatalf("word %d = %#x, not below 4q", j, v)
			}
		}
	}
}

func TestThroughputSumsClients(t *testing.T) {
	// Client 0: two correct ops of 100 ms at nominal speed. Client 1: one
	// correct op and one failed op of 100 ms measured on a host twice as
	// slow, which is 50 ms at nominal speed.
	samples := []sample{
		{client: 0, latency: 100e6, host: 1},
		{client: 0, latency: 100e6, host: 1},
		{client: 1, latency: 100e6, host: 2},
		{client: 1, latency: 100e6, host: 2, failed: true},
	}
	if got := throughput(samples, 2); got != 10+10 {
		t.Errorf("throughput = %v op/s, want 20: 2 ops in 0.2 s and 1 op in 0.1 s", got)
	}
	if got := (sample{latency: 30e6}).ms(); got != 30 {
		t.Errorf("a sample without a reference reads %v ms, want its measured 30", got)
	}
}
