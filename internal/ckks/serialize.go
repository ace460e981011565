package ckks

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/prng"
	"repro/internal/ring"
	"repro/internal/rns"
)

// Wire formats for ciphertexts and switching keys. Switching keys come in
// two encodings: full (both halves of every digit) and compressed (the
// uniform half replaced by its 32-byte PRNG seed) — the paper's §3.2 key
// compression, "a folklore technique often used to reduce communication
// when sending ciphertexts or keys over a network", which this library
// uses both on the wire and to halve switching-key DRAM traffic.

const ctFormatVersion = 1

// ctHeaderSize is the length of a serialized ciphertext's header.
const ctHeaderSize = 16

// binarySize returns the number of bytes WriteTo writes for ct.
func (ct *Ciphertext) binarySize() int {
	return ctHeaderSize + ct.C0.BinarySize() + ct.C1.BinarySize()
}

// appendBinary appends ct's serialized form to b: the header (level,
// scale), then both polynomials.
func (ct *Ciphertext) appendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, ct.binarySize())
	b = append(b, ctFormatVersion, 0)
	b = binary.LittleEndian.AppendUint16(b, uint16(ct.Level))
	b = append(b, 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ct.Scale))
	b, err := ct.C0.AppendBinary(b)
	if err != nil {
		return b, err
	}
	return ct.C1.AppendBinary(b)
}

// WriteTo serializes the ciphertext (header, scale, both polynomials),
// sized once and written with one Write (ring.WriteAppended).
func (ct *Ciphertext) WriteTo(w io.Writer) (int64, error) {
	return ring.WriteAppended(w, ct.binarySize(), ct.appendBinary)
}

// ReadFrom deserializes a ciphertext written by WriteTo.
func (ct *Ciphertext) ReadFrom(r io.Reader) (int64, error) {
	header := make([]byte, ctHeaderSize)
	n, err := io.ReadFull(r, header)
	total := int64(n)
	if err != nil {
		return total, err
	}
	if header[0] != ctFormatVersion {
		return total, fmt.Errorf("ckks: unsupported ciphertext format version %d", header[0])
	}
	// Reserved bytes must be zero, or deserialize ∘ serialize is lossy.
	if header[1] != 0 || header[4] != 0 || header[5] != 0 || header[6] != 0 || header[7] != 0 {
		return total, fmt.Errorf("ckks: nonzero reserved ciphertext header bytes")
	}
	ct.Level = int(binary.LittleEndian.Uint16(header[2:]))
	if ct.Level >= 1<<12 {
		return total, fmt.Errorf("ckks: implausible ciphertext level %d", ct.Level)
	}
	ct.Scale = math.Float64frombits(binary.LittleEndian.Uint64(header[8:]))
	if ct.Scale <= 0 || math.IsNaN(ct.Scale) || math.IsInf(ct.Scale, 0) {
		return total, fmt.Errorf("ckks: implausible ciphertext scale %v", ct.Scale)
	}
	// Validate each polynomial against the header level as soon as it is
	// read, so a limb-count mismatch is rejected before the second
	// polynomial's payload is consumed at all.
	ct.C0, ct.C1 = &ring.Poly{}, &ring.Poly{}
	for _, p := range []*ring.Poly{ct.C0, ct.C1} {
		m, err := p.ReadFrom(r)
		total += m
		if err != nil {
			return total, err
		}
		if p.Level() != ct.Level {
			return total, fmt.Errorf("ckks: ciphertext limb counts disagree with header level %d", ct.Level)
		}
	}
	return total, nil
}

const swkFormatVersion = 1

// WriteTo serializes the switching key. Compressed keys write one seed
// per digit in place of the uniform polynomial, halving the wire size.
func (k *SwitchingKey) WriteTo(w io.Writer) (int64, error) {
	header := make([]byte, 8)
	header[0] = swkFormatVersion
	if k.Compressed() {
		header[1] = 1
	}
	binary.LittleEndian.PutUint16(header[2:], uint16(len(k.Digits)))
	n, err := w.Write(header)
	total := int64(n)
	if err != nil {
		return total, err
	}
	for j, d := range k.Digits {
		for _, p := range []*ring.Poly{d.B.Q, d.B.P} {
			m, err := p.WriteTo(w)
			total += m
			if err != nil {
				return total, err
			}
		}
		if k.Compressed() {
			n, err := w.Write(k.Seeds[j][:])
			total += int64(n)
			if err != nil {
				return total, err
			}
			continue
		}
		for _, p := range []*ring.Poly{d.A.Q, d.A.P} {
			m, err := p.WriteTo(w)
			total += m
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// ReadSwitchingKey deserializes a switching key. Compressed keys come
// back with their seeds; the uniform halves are re-expanded lazily on
// first use by the evaluator (or eagerly via ExpandAll).
func ReadSwitchingKey(r io.Reader) (*SwitchingKey, int64, error) {
	header := make([]byte, 8)
	n, err := io.ReadFull(r, header)
	total := int64(n)
	if err != nil {
		return nil, total, err
	}
	if header[0] != swkFormatVersion {
		return nil, total, fmt.Errorf("ckks: unsupported switching-key format version %d", header[0])
	}
	if header[1]&^uint8(1) != 0 || header[4] != 0 || header[5] != 0 || header[6] != 0 || header[7] != 0 {
		return nil, total, fmt.Errorf("ckks: nonzero reserved switching-key header bytes")
	}
	compressed := header[1]&1 == 1
	digits := int(binary.LittleEndian.Uint16(header[2:]))
	if digits == 0 || digits > 1<<8 {
		return nil, total, fmt.Errorf("ckks: implausible digit count %d", digits)
	}
	k := &SwitchingKey{Digits: make([]KSKDigit, digits)}
	if compressed {
		k.Seeds = make([][prng.SeedSize]byte, digits)
	}
	for j := range k.Digits {
		var b rns.PolyQP
		b.Q, b.P = &ring.Poly{}, &ring.Poly{}
		for _, p := range []*ring.Poly{b.Q, b.P} {
			m, err := p.ReadFrom(r)
			total += m
			if err != nil {
				return nil, total, err
			}
		}
		k.Digits[j].B = b
		if compressed {
			m, err := io.ReadFull(r, k.Seeds[j][:])
			total += int64(m)
			if err != nil {
				return nil, total, err
			}
			continue
		}
		var a rns.PolyQP
		a.Q, a.P = &ring.Poly{}, &ring.Poly{}
		for _, p := range []*ring.Poly{a.Q, a.P} {
			m, err := p.ReadFrom(r)
			total += m
			if err != nil {
				return nil, total, err
			}
		}
		k.Digits[j].A = a
	}
	return k, total, nil
}

// ExpandAll eagerly regenerates the uniform halves of a compressed key so
// later evaluation paths never pay the expansion cost — the opposite end
// of the memory/compute trade from the evaluator's key vault, which
// materializes digits on demand within a byte budget and leaves the key
// itself seed-only.
func (k *SwitchingKey) ExpandAll(params *Parameters) {
	if !k.Compressed() {
		return
	}
	for j := range k.Digits {
		if k.Digits[j].A.Q == nil {
			k.Digits[j].A = expandKSKRandom(params, k.Seeds[j])
		}
	}
}

// DropExpanded releases the materialized uniform halves of a compressed
// key, returning it to seed-only form (the inverse of ExpandAll). The
// information is not lost — every a_j regenerates from Seeds[j] — so the
// key keeps working; the evaluator's vault simply pays expansion on next
// use. No-op for uncompressed keys, whose a halves are irreplaceable.
func (k *SwitchingKey) DropExpanded() {
	if !k.Compressed() {
		return
	}
	for j := range k.Digits {
		k.Digits[j].A = rns.PolyQP{}
	}
}
