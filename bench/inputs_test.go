package main

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// inputHashes hashes every generated input of every workload, and the
// fhed request sequence, for one seed.
func inputHashes(seed uint64) map[string][sha256.Size]byte {
	out := map[string][sha256.Size]byte{}
	hashVecs := func(name string, vecs [][]complex128) {
		h := sha256.New()
		for _, vec := range vecs {
			for _, v := range vec {
				fmt.Fprintf(h, "%x,%x;", real(v), imag(v))
			}
		}
		var d [sha256.Size]byte
		h.Sum(d[:0])
		out[name] = d
	}
	hashVecs("mult_chain", unitVectors(seed, 64))
	hashVecs("bootstrap", squareVectors(seed, 64))
	diags, vecs := matvecInputs(seed, 64)
	for d := 1; d <= matvecDiagonals; d++ {
		vecs = append(vecs, diags[d])
	}
	hashVecs("matvec_hoisted", vecs)
	h := sha256.New()
	for c := 0; c < 2; c++ {
		for it := 0; it < 6; it++ {
			p := planFhed(seed, c, it)
			fmt.Fprintf(h, "%s %v %x;", p.tenant, p.steps, p.values)
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	out["fhed_mixed"] = d
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, other := inputHashes(42), inputHashes(42), inputHashes(43)
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("%s: seed 42 gave two different sets of inputs", name)
		}
		if a[name] == other[name] {
			t.Errorf("%s: seeds 42 and 43 gave the same inputs", name)
		}
	}
}

func TestFhedPlanShape(t *testing.T) {
	tenants := map[string]int{}
	for it := 0; it < 8; it++ {
		if p := planFhed(1, 0, it); p.tenant != "hot" {
			t.Errorf("client 0 iteration %d uses %s, want hot", it, p.tenant)
		}
		p := planFhed(1, 1, it)
		tenants[p.tenant]++
		if len(p.values) != 1<<(fhedLogN-1) {
			t.Errorf("%d values, want one per slot", len(p.values))
		}
		for _, v := range p.values {
			if v < -0.5 || v > 0.5 {
				t.Fatalf("value %v outside [-0.5, 0.5]", v)
			}
		}
		for _, s := range p.steps {
			if s < 1 || s >= 1<<(fhedLogN-1) || s&(s-1) != 0 {
				t.Errorf("rotation step %d is not a power of two the tenant has a key for", s)
			}
		}
	}
	if tenants["hot"] != 4 || tenants["cold"] != 4 {
		t.Errorf("client 1 used %v, want hot and cold alternating", tenants)
	}
}
