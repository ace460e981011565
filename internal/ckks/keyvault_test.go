package ckks

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
)

// cloneSeedOnly returns an independent seed-only view of a compressed
// switching key: the b halves are shared (immutable), the Digits slice is
// fresh so ExpandAll on one clone never leaks materialized a halves into
// another.
func cloneSeedOnly(t *testing.T, k *SwitchingKey) *SwitchingKey {
	t.Helper()
	if !k.Compressed() {
		t.Fatal("cloneSeedOnly needs a compressed key")
	}
	c := &SwitchingKey{Digits: append([]KSKDigit(nil), k.Digits...), Seeds: k.Seeds}
	c.DropExpanded()
	return c
}

// digitBytes is the in-memory size of one expanded uniform half at the
// top level.
func digitBytes(p *Parameters) int64 {
	return int64(p.MaxLevel()+1+p.Alpha()) * int64(p.N()) * 8
}

// vaultTestKeys builds a seed-only compressed key set (relin + rotations)
// plus an encrypted test vector.
func vaultTestKeys(t *testing.T, steps []int) (*testContext, *EvaluationKeySet, *Ciphertext) {
	t.Helper()
	tc := newTestContext(t)
	rlk := tc.kg.GenRelinearizationKey(tc.sk, true)
	rlk.DropExpanded()
	gks := tc.kg.GenGaloisKeys(steps, tc.sk)
	keys := &EvaluationKeySet{Rlk: rlk, Galois: gks}
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))
	return tc, keys, ct
}

// cloneKeySet deep-copies the key set's Digits slices so each evaluator
// (or an ExpandAll baseline) owns its key structs.
func cloneKeySet(t *testing.T, keys *EvaluationKeySet) *EvaluationKeySet {
	t.Helper()
	out := &EvaluationKeySet{Galois: make(map[uint64]*GaloisKey, len(keys.Galois))}
	if keys.Rlk != nil {
		out.Rlk = &RelinearizationKey{SwitchingKey: *cloneSeedOnly(t, &keys.Rlk.SwitchingKey)}
	}
	for g, gk := range keys.Galois {
		out.Galois[g] = &GaloisKey{GaloisEl: gk.GaloisEl, SwitchingKey: *cloneSeedOnly(t, &gk.SwitchingKey)}
	}
	return out
}

// expandKeySet materializes every key in place (the fully-resident
// baseline).
func expandKeySet(params *Parameters, keys *EvaluationKeySet) {
	if keys.Rlk != nil {
		keys.Rlk.ExpandAll(params)
	}
	for _, gk := range keys.Galois {
		gk.ExpandAll(params)
	}
}

// vaultWorkload runs a deterministic mixed workload — a hoisted rotation
// fan-out, a relinearized square, and an inner-sum ladder — and folds the
// results into one ciphertext for bit-identical comparison.
func vaultWorkload(ev *Evaluator, ct *Ciphertext, steps []int) *Ciphertext {
	rots := ev.RotateHoisted(ct, steps)
	out := ev.Square(ct)
	rQ := ev.params.RingQ().AtLevel(out.Level)
	for _, k := range steps {
		r := rots[k]
		rQ.Add(out.C0, r.C0, out.C0)
		rQ.Add(out.C1, r.C1, out.C1)
	}
	sum := ev.InnerSum(ct, 4)
	rQ.Add(out.C0, sum.C0, out.C0)
	rQ.Add(out.C1, sum.C1, out.C1)
	return out
}

// TestGenGaloisKeysSeedOnly asserts the compressed-by-default contract of
// the key-set generator: every digit of every key is seed-only (no
// materialized uniform half), and the keys still rotate correctly via the
// vault, bit-identically to their eagerly expanded twins.
func TestGenGaloisKeysSeedOnly(t *testing.T) {
	steps := []int{1, 3}
	tc, keys, ct := vaultTestKeys(t, steps)
	for g, gk := range keys.Galois {
		if !gk.Compressed() {
			t.Fatalf("galois key %d not compressed", g)
		}
		for j := range gk.Digits {
			if gk.Digits[j].A.Q != nil {
				t.Fatalf("galois key %d digit %d has a materialized uniform half", g, j)
			}
		}
	}

	expanded := cloneKeySet(t, keys)
	expandKeySet(tc.params, expanded)
	evVault := NewEvaluator(tc.params, keys)
	evFull := NewEvaluator(tc.params, expanded)
	for _, k := range steps {
		a := evVault.Rotate(ct, k)
		b := evFull.Rotate(ct, k)
		if !a.C0.Equal(b.C0) || !a.C1.Equal(b.C1) {
			t.Fatalf("rotation by %d differs between vault and expanded keys", k)
		}
	}
	// The keys themselves must still be seed-only: the vault never writes
	// into the key.
	for g, gk := range keys.Galois {
		for j := range gk.Digits {
			if gk.Digits[j].A.Q != nil {
				t.Fatalf("vault materialization leaked into galois key %d digit %d", g, j)
			}
		}
	}
}

// TestKeyVaultConcurrentSwitchKeysRace is the -race regression test for
// the old memoizing write in Evaluator.digit: many goroutines key-switch
// against one shared compressed key, through two evaluators sharing the
// key struct. All outputs must be bit-identical to the serial reference,
// and each evaluator's vault must have expanded every digit exactly once
// (single-flight: concurrency must not duplicate expansion work).
func TestKeyVaultConcurrentSwitchKeysRace(t *testing.T) {
	tc := newTestContext(t)
	sk2 := tc.kg.GenSecretKey()
	swk := tc.kg.GenKeySwitchingKey(tc.sk, sk2, true)
	swk.DropExpanded()
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))

	refEv := NewEvaluator(tc.params, nil)
	ref := refEv.SwitchKeys(ct, swk)
	refEv.FlushKeyVault()

	ev1 := NewEvaluator(tc.params, nil)
	ev2 := NewEvaluator(tc.params, nil)
	const goroutines = 8
	outs := make([]*Ciphertext, 2*goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		for slot, ev := range []*Evaluator{ev1, ev2} {
			wg.Add(1)
			go func(idx int, ev *Evaluator) {
				defer wg.Done()
				outs[idx] = ev.SwitchKeys(ct, swk)
			}(2*i+slot, ev)
		}
	}
	wg.Wait()

	for i, out := range outs {
		if !out.C0.Equal(ref.C0) || !out.C1.Equal(ref.C1) {
			t.Fatalf("concurrent SwitchKeys %d differs from serial reference", i)
		}
	}
	beta := tc.params.Beta(ct.Level)
	for i, ev := range []*Evaluator{ev1, ev2} {
		st := ev.KeyVaultStats()
		if st.Expansions != uint64(beta) {
			t.Errorf("evaluator %d: %d expansions, want %d (single-flight violated)", i, st.Expansions, beta)
		}
		if st.Hits+st.Misses != uint64(goroutines*beta) {
			t.Errorf("evaluator %d: hits+misses = %d, want %d", i, st.Hits+st.Misses, goroutines*beta)
		}
	}
	// The shared key was never mutated.
	for j := range swk.Digits {
		if swk.Digits[j].A.Q != nil {
			t.Fatalf("digit %d materialized into the shared key", j)
		}
	}
}

// TestKeyVaultTinyBudgetProgress sets a budget smaller than a single
// digit: the vault must still make progress (admit-then-evict, never
// deadlock, never fail) with bit-identical results, degrading to
// expand-per-use.
func TestKeyVaultTinyBudgetProgress(t *testing.T) {
	tc := newTestContext(t)
	sk2 := tc.kg.GenSecretKey()
	swk := tc.kg.GenKeySwitchingKey(tc.sk, sk2, true)
	swk.DropExpanded()
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))

	ref := NewEvaluator(tc.params, nil).SwitchKeys(ct, swk)

	ev := NewEvaluator(tc.params, nil, WithKeyBudget(1))
	out := ev.SwitchKeys(ct, swk)
	if !out.C0.Equal(ref.C0) || !out.C1.Equal(ref.C1) {
		t.Fatal("tiny-budget SwitchKeys differs from unlimited reference")
	}
	st := ev.KeyVaultStats()
	db := digitBytes(tc.params)
	beta := tc.params.Beta(ct.Level)
	if st.Evictions < uint64(beta-1) {
		t.Errorf("%d evictions, want >= %d (budget below one digit must evict)", st.Evictions, beta-1)
	}
	// The overshoot is bounded by what one product holds: its β digits are
	// pinned together for the inner product, and a held digit is never
	// evicted. (The bound used to read 2 digits; that held only because
	// the product kept reading digits the vault had already evicted and no
	// longer counted.)
	if st.PeakResident > int64(beta)*db {
		t.Errorf("peak resident %d bytes, want <= β = %d digits (%d)", st.PeakResident, beta, int64(beta)*db)
	}
	if st.ResidentBytes > db {
		t.Errorf("resident %d bytes after the op, want <= one digit (%d)", st.ResidentBytes, db)
	}
}

// TestKeyVaultBudgetChangeMidEvaluation shrinks the budget between ops:
// the resident set must contract immediately, later ops must still be
// bit-identical, and removing the bound must stop evictions again.
func TestKeyVaultBudgetChangeMidEvaluation(t *testing.T) {
	steps := []int{1, 2, 3}
	tc, keys, ct := vaultTestKeys(t, steps)
	expanded := cloneKeySet(t, keys)
	expandKeySet(tc.params, expanded)
	refOut := vaultWorkload(NewEvaluator(tc.params, expanded), ct, steps)

	ev := NewEvaluator(tc.params, keys)
	first := vaultWorkload(ev, ct, steps)
	if !first.C0.Equal(refOut.C0) || !first.C1.Equal(refOut.C1) {
		t.Fatal("unlimited-budget workload differs from expanded baseline")
	}
	if ev.KeyVaultStats().ResidentBytes == 0 {
		t.Fatal("vault empty after a compressed-key workload")
	}

	db := digitBytes(tc.params)
	ev.SetKeyBudget(db) // room for one digit only
	if st := ev.KeyVaultStats(); st.ResidentBytes > db {
		t.Fatalf("resident %d bytes after budget change, want <= %d", st.ResidentBytes, db)
	}
	second := vaultWorkload(ev, ct, steps)
	if !second.C0.Equal(refOut.C0) || !second.C1.Equal(refOut.C1) {
		t.Fatal("post-shrink workload differs from expanded baseline")
	}

	ev.SetKeyBudget(0) // unlimited again
	before := ev.KeyVaultStats().Evictions
	_ = vaultWorkload(ev, ct, steps)
	if after := ev.KeyVaultStats().Evictions; after != before {
		t.Errorf("unlimited budget still evicted (%d -> %d)", before, after)
	}
}

// TestKeyVaultPinnedEvictionRefused holds a key's digits, as a product
// does, and then sets a budget of one byte: the held entries must survive
// (eviction refused, the vault overshoots instead), and go only on
// release.
func TestKeyVaultPinnedEvictionRefused(t *testing.T) {
	tc, keys, ct := vaultTestKeys(t, []int{1})
	ev := NewEvaluator(tc.params, keys)
	gk := keys.Galois[tc.params.RingQ().GaloisElement(1)]
	beta := tc.params.Beta(ct.Level)

	for j := 0; j < beta; j++ {
		ev.vault.acquire(&gk.SwitchingKey, j)
	}
	pinnedBytes := ev.KeyVaultStats().ResidentBytes
	if pinnedBytes == 0 {
		t.Fatal("pinning materialized nothing")
	}

	ev.SetKeyBudget(1)
	st := ev.KeyVaultStats()
	if st.ResidentBytes != pinnedBytes {
		t.Fatalf("pinned entries evicted: resident %d, want %d", st.ResidentBytes, pinnedBytes)
	}
	for j := 0; j < beta; j++ {
		if !ev.vault.contains(&gk.SwitchingKey, j) {
			t.Fatalf("pinned digit %d missing from the vault", j)
		}
	}
	// A rotation through the pinned key works while over budget.
	if out := ev.Rotate(ct, 1); out == nil {
		t.Fatal("rotation failed under over-budget pins")
	}

	for j := 0; j < beta; j++ {
		ev.vault.release(&gk.SwitchingKey, j)
	}
	if st := ev.KeyVaultStats(); st.ResidentBytes > 1 {
		t.Fatalf("resident %d bytes after unpin, want the deferred eviction to fire", st.ResidentBytes)
	}
}

// TestKeyVaultGoldenAcrossBudgetsAndWorkers is the golden contract:
// budgets {tiny, exact-fit, unlimited} × workers {1, 2, GOMAXPROCS} all
// produce ciphertexts bit-identical to the fully-materialized baseline.
func TestKeyVaultGoldenAcrossBudgetsAndWorkers(t *testing.T) {
	steps := []int{1, 2, 3, 4}
	tc, keys, ct := vaultTestKeys(t, steps)

	expanded := cloneKeySet(t, keys)
	expandKeySet(tc.params, expanded)
	ref := vaultWorkload(NewEvaluator(tc.params, expanded), ct, steps)

	// exact fit: every digit of every distinct key the workload touches
	// (relin + |steps| rotations + the extra innersum step keys).
	db := digitBytes(tc.params)
	beta := tc.params.Beta(ct.Level)
	exactFit := int64(len(keys.Galois)+1) * int64(beta) * db

	budgets := map[string]int64{"tiny": 1, "exact-fit": exactFit, "unlimited": 0}
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for name, budget := range budgets {
		for _, w := range workerCounts {
			evKeys := cloneKeySet(t, keys)
			ev := NewEvaluator(tc.params, evKeys, WithWorkers(w), WithKeyBudget(budget))
			out := vaultWorkload(ev, ct, steps)
			if !out.C0.Equal(ref.C0) || !out.C1.Equal(ref.C1) {
				t.Errorf("budget=%s workers=%d: output differs from fully-materialized baseline", name, w)
			}
			if name == "exact-fit" {
				if st := ev.KeyVaultStats(); st.ResidentBytes > exactFit {
					t.Errorf("budget=%s workers=%d: resident %d exceeds budget %d", name, w, st.ResidentBytes, exactFit)
				}
			}
		}
	}
}

// TestKeyVaultObsCounters wires a recorder and checks the vault's
// counters and gauges surface through the standard obs snapshot — the
// same path Prometheus and `fhe -stats` consume.
func TestKeyVaultObsCounters(t *testing.T) {
	steps := []int{1, 2}
	tc, keys, ct := vaultTestKeys(t, steps)
	rec := obs.NewRecorder()
	ev := NewEvaluator(tc.params, keys, WithKeyBudget(digitBytes(tc.params)))
	ev.SetRecorder(rec)
	_ = vaultWorkload(ev, ct, steps)
	// One lookup per digit per product: under a one-digit budget a hit is a
	// digit used twice in a row, which happens where β = 1.
	low := ev.DropLevel(ct, 0)
	_ = ev.Rotate(low, 1)
	_ = ev.Rotate(low, 1)

	st := ev.KeyVaultStats()
	for name, want := range map[string]uint64{
		"ckks.keyvault.hits":       st.Hits,
		"ckks.keyvault.misses":     st.Misses,
		"ckks.keyvault.expansions": st.Expansions,
		"ckks.keyvault.evictions":  st.Evictions,
	} {
		if got := rec.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
		if rec.Counter(name) == 0 {
			t.Errorf("%s never incremented by a budget-constrained workload", name)
		}
	}
	snap := rec.Snapshot()
	if _, ok := snap.Gauges["ckks.keyvault.resident_bytes"]; !ok {
		t.Error("resident_bytes gauge missing from snapshot")
	}
	if g, ok := snap.Gauges["ckks.keyvault.budget_bytes"]; !ok || int64(g) != digitBytes(tc.params) {
		t.Errorf("budget_bytes gauge = %v, want %d", g, digitBytes(tc.params))
	}
}

// TestKeySizeBytesMatchesWire pins KeySizeBytes to the truth: it must
// equal the exact byte count WriteTo produces, for both compressed and
// full keys — and a compressed key's A halves must not be materialized by
// a serialization round-trip.
func TestKeySizeBytesMatchesWire(t *testing.T) {
	tc := newTestContext(t)
	for _, compress := range []bool{false, true} {
		swk := tc.kg.GenKeySwitchingKey(tc.sk, tc.kg.GenSecretKey(), compress)
		if compress {
			swk.DropExpanded()
		}
		var buf bytes.Buffer
		n, err := swk.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := tc.params.KeySizeBytes(swk); int64(got) != n {
			t.Errorf("compress=%v: KeySizeBytes = %d, wire = %d", compress, got, n)
		}
		rt, _, err := ReadSwitchingKey(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Compressed() != compress {
			t.Fatalf("compress=%v: round-trip lost compression flag", compress)
		}
		if compress {
			for j := range rt.Digits {
				if rt.Digits[j].A.Q != nil {
					t.Fatalf("digit %d materialized by a serialization round-trip", j)
				}
			}
		}
	}
	// The compressed wire format must be roughly half the full one.
	full := tc.kg.GenKeySwitchingKey(tc.sk, tc.sk, false)
	comp := tc.kg.GenKeySwitchingKey(tc.sk, tc.sk, true)
	if f, c := tc.params.KeySizeBytes(full), tc.params.KeySizeBytes(comp); c >= f*6/10 {
		t.Errorf("compressed size %d not close to half of %d", c, f)
	}
}

// TestKeyResidentBytes checks the in-memory accounting follows
// materialization state.
func TestKeyResidentBytes(t *testing.T) {
	tc := newTestContext(t)
	swk := tc.kg.GenKeySwitchingKey(tc.sk, tc.sk, true)
	swk.DropExpanded()
	seedOnly := tc.params.KeyResidentBytes(swk)
	swk.ExpandAll(tc.params)
	expanded := tc.params.KeyResidentBytes(swk)
	db := digitBytes(tc.params)
	if expanded-seedOnly != int64(len(swk.Digits))*db {
		t.Errorf("ExpandAll grew the key by %d bytes, want %d", expanded-seedOnly, int64(len(swk.Digits))*db)
	}
	swk.DropExpanded()
	if got := tc.params.KeyResidentBytes(swk); got != seedOnly {
		t.Errorf("DropExpanded left %d resident bytes, want %d", got, seedOnly)
	}
}
