package ckks

import (
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/fherr"
)

// The chaos suite asserts the fault-tolerance contract: every fault
// class internal/faultinject can inject is either *detected* (a typed
// fherr error at an op boundary before the corrupted value propagates)
// or *provably harmless* (the corrupted bits never reach the result).
// Silent corruption — a fault that fires and changes the decrypted
// message without any error — is the one outcome the suite forbids.

// chaosEval builds an evaluator with relin + rotation keys, an attached
// injector, and the given integrity mode.
func chaosEval(t *testing.T, integrity bool) (*testContext, *Evaluator, *faultinject.Injector) {
	t.Helper()
	tc := newTestContext(t)
	rlk := tc.kg.GenRelinearizationKey(tc.sk, false)
	gks := tc.kg.GenRotationKeys([]int{1, 2}, tc.sk, false)
	fi := faultinject.New()
	var opts []EvaluatorOption
	if integrity {
		opts = append(opts, WithIntegrity())
	}
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Rlk: rlk, Galois: gks}, opts...)
	ev.SetFaultInjector(fi)
	return tc, ev, fi
}

// TestChaosOutputFaultsDetected drives the pipeline Mul → Add with one
// fault armed at the Mul output site and asserts the Add's operand
// validation catches it with the expected sentinel. With integrity on
// the checksum catches everything, including faults the structural
// checks cannot see (payload bit flips, zeroed limbs); with integrity
// off the structural checks still catch shape and domain corruption.
func TestChaosOutputFaultsDetected(t *testing.T) {
	cases := []struct {
		name      string
		fault     faultinject.Fault
		integrity bool
		want      error
	}{
		{"bitflip sealed", faultinject.Fault{Site: "ckks.Mul.c0", Kind: faultinject.KindBitFlip, Limb: 1, Coeff: 17, Bit: 41}, true, fherr.ErrChecksum},
		{"zero limb sealed", faultinject.Fault{Site: "ckks.Mul.c0", Kind: faultinject.KindZeroLimb, Limb: 2}, true, fherr.ErrChecksum},
		// Structural checks run before the checksum comparison, so shape
		// and domain faults surface with their structural sentinel even on
		// sealed ciphertexts.
		{"truncate sealed", faultinject.Fault{Site: "ckks.Mul.c1", Kind: faultinject.KindTruncateLimbs, Keep: 1}, true, fherr.ErrLevelMismatch},
		{"truncate unsealed", faultinject.Fault{Site: "ckks.Mul.c1", Kind: faultinject.KindTruncateLimbs, Keep: 1}, false, fherr.ErrLevelMismatch},
		{"toggle ntt sealed", faultinject.Fault{Site: "ckks.Mul.c0", Kind: faultinject.KindToggleNTT}, true, fherr.ErrNTTDomain},
		{"toggle ntt unsealed", faultinject.Fault{Site: "ckks.Mul.c0", Kind: faultinject.KindToggleNTT}, false, fherr.ErrNTTDomain},
		{"corrupt scale sealed", faultinject.Fault{Site: "ckks.Mul.scale", Kind: faultinject.KindCorruptScale}, true, fherr.ErrChecksum},
		{"corrupt scale unsealed", faultinject.Fault{Site: "ckks.Mul.scale", Kind: faultinject.KindCorruptScale}, false, fherr.ErrScaleMismatch},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc, ev, fi := chaosEval(t, c.integrity)
			a := encryptRandom(tc)
			b := encryptRandom(tc)
			// A reference product computed before arming the fault: same
			// level and scale as the victim, so the only Add failure mode
			// is the injected fault itself.
			ref, err := doMul(ev, a, b)
			if err != nil {
				t.Fatal(err)
			}

			fi.Arm(c.fault)
			x, err := doMul(ev, a, b)
			if err != nil {
				t.Fatalf("fault at an output site failed the op itself: %v", err)
			}
			if len(fi.Events()) != 1 {
				t.Fatalf("fault did not fire: %v", fi.Events())
			}

			_, err = doAdd(ev, x, ref)
			if err == nil {
				t.Fatal("corrupted operand accepted: silent corruption")
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("detected as %v, want %v", err, c.want)
			}
		})
	}
}

// TestChaosKeyDigitCorruption corrupts switching-key digits in place.
// A truncated digit breaks the kernel's limb indexing and must surface
// as a recovered typed error — never a process-killing panic; the
// evaluator (and its scratch pools) must remain usable afterwards.
func TestChaosKeyDigitCorruption(t *testing.T) {
	for _, workers := range []int{1, 2} {
		tc, ev, fi := chaosEval(t, false)
		ev.SetWorkers(workers)
		a := encryptRandom(tc)

		fi.Arm(faultinject.Fault{Site: "ckks.ksk.digitB", Kind: faultinject.KindTruncateLimbs, Keep: 1})
		_, err := doRotate(ev, a, 1)
		if err == nil {
			t.Fatalf("workers=%d: truncated key digit went unnoticed", workers)
		}
		if !errors.Is(err, fherr.ErrInternal) {
			t.Fatalf("workers=%d: got %v, want ErrInternal", workers, err)
		}
		if len(fi.Events()) != 1 {
			t.Fatalf("workers=%d: fault did not fire: %v", workers, fi.Events())
		}

		// The step-2 key is untouched: the evaluator must still work.
		fi.Reset()
		if _, err := doRotate(ev, a, 2); err != nil {
			t.Fatalf("workers=%d: evaluator unusable after key-corruption recovery: %v", workers, err)
		}
	}
}

// TestChaosTopLimbFlipThenDropHarmless is the provably-harmless class:
// a bit flip confined to the top limb followed by a DropLevel below it
// cannot affect the result, because DropLevel discards that limb
// entirely. The dropped ciphertext must be bit-identical to the clean
// run.
func TestChaosTopLimbFlipThenDropHarmless(t *testing.T) {
	tc, ev, fi := chaosEval(t, false)
	a := encryptRandom(tc)
	b := encryptRandom(tc)

	clean := ev.DropLevel(ev.Add(a, b), a.Level-1)

	// Limb index 1<<30 clamps to the top limb whatever the level is.
	fi.Arm(faultinject.Fault{Site: "ckks.Add.c0", Kind: faultinject.KindBitFlip, Limb: 1 << 30, Coeff: 12, Bit: 3})
	x, err := doAdd(ev, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(fi.Events()) != 1 {
		t.Fatalf("fault did not fire: %v", fi.Events())
	}
	dropped, err := doDropLevel(ev, x, x.Level-1)
	if err != nil {
		t.Fatalf("structurally clean ciphertext rejected: %v", err)
	}
	if !dropped.C0.Equal(clean.C0) || !dropped.C1.Equal(clean.C1) {
		t.Fatal("top-limb flip leaked through DropLevel")
	}
}

// TestChaosVaultDigitBitFlip injects a bit flip into a switching-key
// digit *as the key vault materializes it*. This fault class is nastier
// than the in-place digit corruption above: the vault caches the
// corrupted expansion, so every later hit silently serves the same bad
// key material without the fault firing again — persistent SRAM
// corruption. The test asserts (1) the corruption is detected by the
// decrypt-compare precision probe (key corruption is invisible to
// ciphertext checksums and structural checks), (2) the corruption indeed
// persists across ops through the cache, and (3) FlushKeyVault is a
// sufficient recovery action: rematerialization from the seed restores
// bit-identical clean behavior. It runs under an unlimited budget and
// under one that holds exactly the key, where the clean expansions land
// in buffers that were evicted corrupted or clean — reuse must not carry
// a flipped bit over.
func TestChaosVaultDigitBitFlip(t *testing.T) {
	tc := newTestContext(t)
	for _, budget := range []int64{0, int64(tc.params.Dnum()) * digitBytes(tc.params)} {
		chaosVaultDigitBitFlip(t, tc, budget)
	}
}

func chaosVaultDigitBitFlip(t *testing.T, tc *testContext, budget int64) {
	gks := tc.kg.GenGaloisKeys([]int{1}, tc.sk)
	fi := faultinject.New()
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Galois: gks}, WithKeyBudget(budget))
	ev.SetFaultInjector(fi)

	msg := randomValues(tc.params.Slots(), 1)
	ct := tc.encSk.Encrypt(tc.enc.Encode(msg))
	clean := ev.Rotate(ct, 1)
	ev.FlushKeyVault() // drop the clean expansions so the fault can land

	fi.Arm(faultinject.Fault{Site: "ckks.keyvault.digitA", Kind: faultinject.KindBitFlip, Limb: 0, Coeff: 7, Bit: 33})
	bad := ev.Rotate(ct, 1)
	if len(fi.Events()) != 1 {
		t.Fatalf("fault did not fire exactly once: %v", fi.Events())
	}
	// Detection: the decrypt-compare precision probe (the same check
	// bootstrap's ArmPrecisionGuard runs). A single flipped key bit
	// scrambles the key-switch completely.
	cleanVals := tc.enc.Decode(tc.dec.DecryptToPlaintext(clean))
	badVals := tc.enc.Decode(tc.dec.DecryptToPlaintext(bad))
	if err := maxErr(cleanVals, badVals); err < 1 {
		t.Fatalf("corrupted vault digit decrypted within %.3g of clean — silent corruption", err)
	}

	// Persistence: the injector is spent, but the cached corruption keeps
	// serving — the next rotation is still wrong without any new fault.
	again := ev.Rotate(ct, 1)
	if len(fi.Events()) != 1 {
		t.Fatalf("fault fired again: %v", fi.Events())
	}
	if !again.C0.Equal(bad.C0) || !again.C1.Equal(bad.C1) {
		t.Fatal("cached corruption did not persist (vault re-expanded unexpectedly)")
	}

	// Recovery: flush the vault; rematerialization from the seed is
	// bit-identical to the pre-fault run.
	ev.FlushKeyVault()
	recovered := ev.Rotate(ct, 1)
	if !recovered.C0.Equal(clean.C0) || !recovered.C1.Equal(clean.C1) {
		t.Fatal("FlushKeyVault did not restore clean key material")
	}
}

// TestChaosVaultTruncatedBufferNotReused truncates a digit's limbs as the
// vault materializes it, under a budget that thrashes. The product that
// meets the short digit must fail with a typed error and leave nothing
// pinned; the vault must then drop the tampered buffer instead of handing
// it to the next miss (an expansion into it would regenerate a short
// digit for whichever key inherits it, forever): every later rotation,
// through this key and the others that cycle through the same budget, is
// bit-identical to a clean evaluator's.
func TestChaosVaultTruncatedBufferNotReused(t *testing.T) {
	steps := []int{1, 2, 3}
	tc, keys, ct := vaultTestKeys(t, steps)
	clean := NewEvaluator(tc.params, cloneKeySet(t, keys))

	fi := faultinject.New()
	oneKey := int64(tc.params.Dnum()) * digitBytes(tc.params)
	ev := NewEvaluator(tc.params, keys, WithKeyBudget(oneKey))
	ev.SetFaultInjector(fi)
	if _, err := doRotate(ev, ct, 1); err != nil {
		t.Fatal(err)
	}

	fi.Arm(faultinject.Fault{Site: "ckks.keyvault.digitA", Kind: faultinject.KindTruncateLimbs, Keep: 1})
	if _, err := doRotate(ev, ct, 2); !errors.Is(err, fherr.ErrInternal) {
		t.Fatalf("rotation through a truncated vault digit: got %v, want ErrInternal", err)
	}
	if len(fi.Events()) != 1 {
		t.Fatalf("fault did not fire exactly once: %v", fi.Events())
	}
	fi.Reset()

	for round := 0; round < 2; round++ {
		for _, k := range steps {
			got, err := doRotate(ev, ct, k)
			if err != nil {
				t.Fatalf("round %d step %d after the fault: %v", round, k, err)
			}
			if want := clean.Rotate(ct, k); !ctEqual(got, want) {
				t.Fatalf("round %d step %d after the fault: differs from a clean evaluator", round, k)
			}
		}
	}
	if st := ev.KeyVaultStats(); st.ResidentBytes > oneKey {
		t.Errorf("resident %d bytes after the fault, want <= budget %d (a leaked pin keeps digits resident)", st.ResidentBytes, oneKey)
	}
}

// TestChaosBitFlipWithoutIntegrityIsTheGap documents why the checksums
// exist: with integrity off, a payload bit flip is structurally
// invisible and sails through validation — the suite records this as
// the known detection gap the integrity mode closes.
func TestChaosBitFlipWithoutIntegrityIsTheGap(t *testing.T) {
	tc, ev, fi := chaosEval(t, false)
	a := encryptRandom(tc)
	b := encryptRandom(tc)
	ref, err := doMul(ev, a, b)
	if err != nil {
		t.Fatal(err)
	}
	fi.Arm(faultinject.Fault{Site: "ckks.Mul.c0", Kind: faultinject.KindBitFlip, Limb: 0, Coeff: 3, Bit: 60})
	x, err := doMul(ev, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doAdd(ev, x, ref); err != nil {
		t.Fatalf("structural validation unexpectedly caught a payload flip: %v", err)
	}
	// Same fault, integrity on: the gap closes.
	_, ev2, fi2 := chaosEval(t, true)
	ref2, err := doMul(ev2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	fi2.Arm(faultinject.Fault{Site: "ckks.Mul.c0", Kind: faultinject.KindBitFlip, Limb: 0, Coeff: 3, Bit: 60})
	x2, err := doMul(ev2, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doAdd(ev2, x2, ref2); !errors.Is(err, fherr.ErrChecksum) {
		t.Fatalf("integrity mode failed to detect the flip: %v", err)
	}
}
