package ckks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/fherr"
	"repro/internal/prng"
)

// fuzzSeedCiphertext serializes a genuine ciphertext for the seed corpus.
func fuzzSeedCiphertext(f *testing.F) []byte {
	tc := newTestContext(f)
	ct := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCiphertextReadFrom checks that hostile or truncated ciphertext
// streams never panic, that header/limb mismatches are rejected, and that
// accepted inputs re-serialize to the exact bytes consumed.
func FuzzCiphertextReadFrom(f *testing.F) {
	good := fuzzSeedCiphertext(f)
	f.Add(good)
	f.Add(good[:len(good)/2]) // truncated mid-polynomial
	f.Add(good[:16])          // header only
	// Header claiming a level that disagrees with the first polynomial.
	mismatched := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(mismatched[2:], 7)
	f.Add(mismatched)
	// Absurd level.
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(huge[2:], 0xffff)
	f.Add(huge)
	// NaN scale.
	nan := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(nan[8:], 0x7ff8000000000001)
	f.Add(nan)

	f.Fuzz(func(t *testing.T, data []byte) {
		var ct Ciphertext
		n, err := ct.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n > int64(len(data)) {
			t.Fatalf("ReadFrom claims %d bytes from a %d-byte input", n, len(data))
		}
		if ct.C0.Level() != ct.Level || ct.C1.Level() != ct.Level {
			t.Fatal("accepted ciphertext with inconsistent limb counts")
		}
		var out bytes.Buffer
		if _, err := ct.WriteTo(&out); err != nil {
			t.Fatalf("re-serialization of accepted input failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:n]) {
			t.Fatal("accepted input does not round-trip byte-identically")
		}
	})
}

// fuzzSentinels is the closed set of error kinds the public error API is
// allowed to produce; any error outside it fails the fuzz targets.
var fuzzSentinels = []error{
	fherr.ErrLevelMismatch, fherr.ErrScaleMismatch, fherr.ErrNTTDomain,
	fherr.ErrDegree, fherr.ErrKeyMissing, fherr.ErrLimbLength,
	fherr.ErrChecksum, fherr.ErrPrecisionLoss, fherr.ErrInternal,
}

func assertTypedError(t *testing.T, err error) {
	t.Helper()
	for _, s := range fuzzSentinels {
		if errors.Is(err, s) {
			return
		}
	}
	t.Fatalf("error does not wrap any fherr sentinel: %v", err)
}

// FuzzValidateCiphertext mutates a genuine ciphertext's header and limb
// structure and checks that Validate never panics and that every
// rejection wraps a typed fherr sentinel.
func FuzzValidateCiphertext(f *testing.F) {
	tc := newTestContext(f)
	ev := NewEvaluator(tc.params, nil)
	base := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))

	f.Add(int16(base.Level), math.Float64bits(base.Scale), false, false, uint8(0), uint8(0), false, uint16(0))
	f.Add(int16(-1), uint64(0), true, false, uint8(1), uint8(0), false, uint16(3))
	f.Add(int16(200), math.Float64bits(math.NaN()), false, true, uint8(0), uint8(7), true, uint16(9))
	f.Add(int16(base.Level), math.Float64bits(base.Scale), false, false, uint8(0), uint8(0), true, uint16(1))

	f.Fuzz(func(t *testing.T, level int16, scaleBits uint64, ntt0, ntt1 bool, truncC0, shortLimb uint8, seal bool, flip uint16) {
		ct := base.CopyNew()
		ct.Level = int(level)
		ct.Scale = math.Float64frombits(scaleBits)
		if ntt0 {
			ct.C0.IsNTT = false
		}
		if ntt1 {
			ct.C1.IsNTT = false
		}
		if n := int(truncC0); n > 0 && n < len(ct.C0.Coeffs) {
			ct.C0.Coeffs = ct.C0.Coeffs[:n]
		}
		if n := int(shortLimb); n > 0 {
			i := n % len(ct.C1.Coeffs)
			ct.C1.Coeffs[i] = ct.C1.Coeffs[i][:len(ct.C1.Coeffs[i])/2]
		}
		if seal {
			ct.Seal()
			// Post-seal mutation: the checksum must catch it.
			if flip != 0 {
				ct.C0.Coeffs[0][int(flip)%len(ct.C0.Coeffs[0])] ^= 1
			}
		}
		if err := tc.params.Validate(ct); err != nil {
			assertTypedError(t, err)
			return
		}
		// Validate accepted the mutant: the checked API must succeed on it.
		if _, err := doNeg(ev, ct); err != nil {
			t.Fatalf("Validate accepted but Neg through Do failed: %v", err)
		}
	})
}

// FuzzEvaluatorOps drives random level/scale/NTT-flag mutations through
// the error-returning evaluator API: nothing may panic, and every
// failure must wrap a typed fherr sentinel.
func FuzzEvaluatorOps(f *testing.F) {
	tc := newTestContext(f)
	rlk := tc.kg.GenRelinearizationKey(tc.sk, false)
	gks := tc.kg.GenRotationKeys([]int{1, 2}, tc.sk, false)
	ev := NewEvaluator(tc.params, &EvaluationKeySet{Rlk: rlk, Galois: gks})
	a := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))
	b := tc.encSk.Encrypt(tc.enc.Encode(randomValues(tc.params.Slots(), 1)))

	for op := uint8(0); op < 8; op++ {
		f.Add(op, int8(1), int8(0), 1.0, false, uint8(4))
	}
	f.Add(uint8(2), int8(5), int8(-3), math.Inf(1), true, uint8(3))
	f.Add(uint8(3), int8(-7), int8(2), 0.0, false, uint8(0))

	f.Fuzz(func(t *testing.T, op uint8, rot int8, levelDelta int8, scaleMul float64, toggleNTT bool, width uint8) {
		ct := a.CopyNew()
		if d := int(levelDelta); d != 0 {
			nl := ct.Level + d
			if nl >= 0 && nl < ct.Level {
				// A legitimate lower-level ciphertext: exercises real
				// kernel paths, not just validation rejects.
				ct.C0.Coeffs = ct.C0.Coeffs[:nl+1]
				ct.C1.Coeffs = ct.C1.Coeffs[:nl+1]
			}
			ct.Level = nl
		}
		ct.Scale *= scaleMul
		if toggleNTT {
			ct.C1.IsNTT = false
		}
		var name string
		var f coreOp
		ins := []*Ciphertext{ct}
		switch op % 8 {
		case 0:
			name, f, ins = "Add", func(ev *Evaluator) *Ciphertext { return ev.Add(ct, b) }, append(ins, b)
		case 1:
			name, f, ins = "Sub", func(ev *Evaluator) *Ciphertext { return ev.Sub(ct, b) }, append(ins, b)
		case 2:
			name, f, ins = "Mul", func(ev *Evaluator) *Ciphertext { return ev.Mul(ct, b) }, append(ins, b)
		case 3:
			name, f = "Rotate", func(ev *Evaluator) *Ciphertext { return ev.Rotate(ct, int(rot)) }
		case 4:
			name, f = "Rescale", func(ev *Evaluator) *Ciphertext { return ev.Rescale(ct) }
		case 5:
			name, f = "InnerSum", func(ev *Evaluator) *Ciphertext { return ev.InnerSum(ct, int(width)) }
		case 6:
			name, f = "Square", func(ev *Evaluator) *Ciphertext { return ev.Square(ct) }
		case 7:
			name, f = "DropLevel", func(ev *Evaluator) *Ciphertext { return ev.DropLevel(ct, int(levelDelta)) }
		}
		_, err := do(ev, name, f, ins...)
		if err != nil {
			assertTypedError(t, err)
		}
	})
}

// FuzzReadSwitchingKey checks that arbitrary switching-key streams never
// panic and accepted ones re-serialize to the bytes consumed. Compressed
// streams additionally must never materialize A halves on read: decoding
// a seed-compressed key is a header-and-seed parse, not a key expansion —
// the vault owns materialization.
func FuzzReadSwitchingKey(f *testing.F) {
	tc := newTestContext(f)
	for _, compressed := range []bool{false, true} {
		rlk := tc.kg.GenRelinearizationKey(tc.sk, compressed)
		var buf bytes.Buffer
		if _, err := rlk.SwitchingKey.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/3])
	}
	// Seed-only Galois keys, the form GenGaloisKeys emits and the vault
	// consumes: exercises the compressed wire path with a different digit
	// structure than the rlk above.
	for _, gk := range tc.kg.GenGaloisKeys([]int{1, 3}, tc.sk) {
		var buf bytes.Buffer
		if _, err := gk.SwitchingKey.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// Flip the compression flag: the payload no longer matches the
		// header's framing, so the reader must reject (or re-frame) it
		// without panicking.
		flipped := bytes.Clone(buf.Bytes())
		flipped[1] ^= 1
		f.Add(flipped)
		// Truncate inside the first digit's seed bytes.
		if buf.Len() > prng.SeedSize/2 {
			f.Add(buf.Bytes()[:buf.Len()-prng.SeedSize/2])
		}
	}
	f.Add([]byte{1, 0, 0xff, 0xff, 0, 0, 0, 0}) // implausible digit count
	f.Add([]byte{1, 1, 1, 0, 0, 0, 0, 0})       // compressed, truncated

	f.Fuzz(func(t *testing.T, data []byte) {
		k, n, err := ReadSwitchingKey(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n > int64(len(data)) {
			t.Fatalf("ReadSwitchingKey claims %d bytes from a %d-byte input", n, len(data))
		}
		if k.Compressed() {
			for j := range k.Digits {
				if k.Digits[j].A.Q != nil {
					t.Fatalf("compressed read materialized digit %d's A half", j)
				}
			}
		}
		var out bytes.Buffer
		if _, err := k.WriteTo(&out); err != nil {
			t.Fatalf("re-serialization of accepted input failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:n]) {
			t.Fatal("accepted input does not round-trip byte-identically")
		}
	})
}
