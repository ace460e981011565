package ring

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestPolySerializationRoundTrip(t *testing.T) {
	r := testRing(t, 256, 3)
	src := fixedSource()
	p := r.NewPoly()
	r.SampleUniform(src, p)
	p.IsNTT = true

	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != p.SerializedSize() || buf.Len() != p.SerializedSize() {
		t.Errorf("wrote %d bytes, SerializedSize says %d", n, p.SerializedSize())
	}

	var back Poly
	m, err := back.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Errorf("read %d bytes, wrote %d", m, n)
	}
	if !back.Equal(p) {
		t.Error("polynomial corrupted by the round trip")
	}
}

func TestPolySerializationPreservesCoeffForm(t *testing.T) {
	r := testRing(t, 64, 2)
	src := fixedSource()
	p := r.NewPoly()
	r.SampleUniform(src, p)
	p.IsNTT = false

	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back Poly
	if _, err := back.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if back.IsNTT {
		t.Error("NTT flag corrupted")
	}
}

func TestPolyDeserializationRejectsGarbage(t *testing.T) {
	var p Poly
	if _, err := p.ReadFrom(strings.NewReader("short")); err == nil {
		t.Error("expected error on truncated header")
	}
	// Wrong version.
	bad := make([]byte, 64)
	bad[0] = 42
	if _, err := p.ReadFrom(bytes.NewReader(bad)); err == nil {
		t.Error("expected error on bad version")
	}
	// Implausible shape (n = 0).
	bad = make([]byte, 12)
	bad[0] = polyFormatVersion
	if _, err := p.ReadFrom(bytes.NewReader(bad)); err == nil {
		t.Error("expected error on zero-shape header")
	}
	// Valid header, truncated body.
	r := testRing(t, 32, 2)
	src := fixedSource()
	good := r.NewPoly()
	r.SampleUniform(src, good)
	var buf bytes.Buffer
	if _, err := good.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadFrom(bytes.NewReader(buf.Bytes()[:buf.Len()-7])); err == nil {
		t.Error("expected error on truncated body")
	}
}

func TestEmptyPolySerialization(t *testing.T) {
	var p Poly
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err == nil {
		t.Error("expected error serializing an empty polynomial")
	}
}

// TestPolyReadFromHostileHeaderAllocation bounds what a header that
// claims the largest shape costs when the payload then stops: at most
// the staging chunk, never a limb of 8·n bytes.
func TestPolyReadFromHostileHeaderAllocation(t *testing.T) {
	const bound = 2 * readChunk
	for _, tc := range []struct {
		name    string
		limbs   uint16
		payload int
	}{
		{"header+EOF", 1, 0},
		{"header+partial-chunk", 1, 1000},
		{"max-limbs-header+EOF", 1 << 12, 0},
	} {
		in := append(fuzzHeader(polyFormatVersion, 0, tc.limbs, 1<<20), make([]byte, tc.payload)...)
		var worst uint64 = math.MaxUint64
		for range 3 { // the least of three runs drops background allocations
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var p Poly
			_, err := p.ReadFrom(bytes.NewReader(in))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: truncated input accepted", tc.name)
			}
			worst = min(worst, after.TotalAlloc-before.TotalAlloc)
		}
		if worst > bound {
			t.Errorf("%s: ReadFrom allocated %d bytes before failing, want ≤ %d", tc.name, worst, bound)
		}
		t.Logf("%s: %d bytes allocated", tc.name, worst)
	}
}

// TestPolyReadFromAllocationTracksInput bounds ReadFrom's allocation by
// what it has read, not by what the header claims: a header for
// n = 2^20 followed by k whole chunks and a few bytes of the next costs at
// most twice the bytes consumed plus the staging chunk. A limb allocated
// whole on its first chunk (8 MiB for 64 KiB of input) fails it.
func TestPolyReadFromAllocationTracksInput(t *testing.T) {
	for _, chunks := range []int{1, 2, 5} {
		payload := chunks*readChunk + 8
		in := append(fuzzHeader(polyFormatVersion, 0, 1, 1<<20), make([]byte, payload)...)
		bound := uint64(2*len(in) + readChunk)
		var worst uint64 = math.MaxUint64
		for range 3 { // the least of three runs drops background allocations
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var p Poly
			_, err := p.ReadFrom(bytes.NewReader(in))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%d chunks: truncated input accepted", chunks)
			}
			worst = min(worst, after.TotalAlloc-before.TotalAlloc)
		}
		if worst > bound {
			t.Errorf("%d chunks + 8 bytes: ReadFrom allocated %d bytes for %d consumed, want ≤ %d", chunks, worst, len(in), bound)
		}
		t.Logf("%d chunks + 8 bytes: %d bytes allocated for %d consumed", chunks, worst, len(in))
	}
}

// TestPolySerializationRoundTripChunked round-trips limbs longer than
// ReadFrom's staging chunk, so each limb is assembled from several reads.
func TestPolySerializationRoundTripChunked(t *testing.T) {
	n := 4 * readChunk / 8 // four chunks per limb (n must be a power of two)
	p := &Poly{Coeffs: make([][]uint64, 2), IsNTT: true}
	for i := range p.Coeffs {
		p.Coeffs[i] = make([]uint64, n)
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = uint64(i)<<40 ^ uint64(j)*0x9e3779b97f4a7c15
		}
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back Poly
	if m, err := back.ReadFrom(&buf); err != nil || m != int64(p.SerializedSize()) {
		t.Fatalf("ReadFrom = %d, %v; want %d bytes", m, err, p.SerializedSize())
	}
	if !back.Equal(p) {
		t.Error("chunked limbs corrupted by the round trip")
	}
}
