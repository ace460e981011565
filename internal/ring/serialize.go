package ring

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Serialization of polynomials: a small fixed header (limb count,
// degree, representation flag) followed by the limbs as little-endian
// 64-bit words. The format is versioned so future layout changes stay
// detectable.

const polyFormatVersion = 1

// polyHeaderSize is the length of a serialized polynomial's header.
const polyHeaderSize = 12

// BinarySize returns the number of bytes WriteTo writes for p.
func (p *Poly) BinarySize() int {
	if len(p.Coeffs) == 0 {
		return 0
	}
	return polyHeaderSize + 8*len(p.Coeffs)*len(p.Coeffs[0])
}

// AppendBinary appends p's serialized form to b: the header, then every
// limb as little-endian 64-bit words. It implements
// encoding.BinaryAppender.
func (p *Poly) AppendBinary(b []byte) ([]byte, error) {
	if len(p.Coeffs) == 0 {
		return b, fmt.Errorf("ring: cannot serialize an empty polynomial")
	}
	n := len(p.Coeffs[0])
	for _, limb := range p.Coeffs {
		if len(limb) != n {
			return b, fmt.Errorf("ring: ragged limb lengths")
		}
	}
	size := p.BinarySize()
	b = slices.Grow(b, size)
	out := b[len(b) : len(b)+size]
	out[0] = polyFormatVersion
	out[1] = 0
	if p.IsNTT {
		out[1] = 1
	}
	binary.LittleEndian.PutUint16(out[2:], uint16(len(p.Coeffs)))
	binary.LittleEndian.PutUint32(out[4:], uint32(n))
	clear(out[8:polyHeaderSize]) // reserved
	words := out[polyHeaderSize:]
	for _, limb := range p.Coeffs {
		for j, v := range limb {
			binary.LittleEndian.PutUint64(words[8*j:], v)
		}
		words = words[8*n:]
	}
	return b[:len(b)+size], nil
}

// WriteTo serializes the polynomial with one Write (see WriteAppended).
// It implements io.WriterTo.
func (p *Poly) WriteTo(w io.Writer) (int64, error) {
	return WriteAppended(w, p.BinarySize(), p.AppendBinary)
}

// WriteAppended writes the size bytes appendTo appends, with one Write. A
// writer that can hand out space — Grow and AvailableBuffer, as
// bytes.Buffer has — gets them encoded straight into its own buffer; any
// other gets one staging buffer of size bytes. An encoding error is
// returned before anything is written.
func WriteAppended(w io.Writer, size int, appendTo func([]byte) ([]byte, error)) (int64, error) {
	var b []byte
	if g, ok := w.(interface {
		Grow(n int)
		AvailableBuffer() []byte
	}); ok {
		g.Grow(size)
		b = g.AvailableBuffer()
	} else {
		b = make([]byte, 0, size)
	}
	b, err := appendTo(b)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadFrom deserializes into p, replacing its contents. It implements
// io.ReaderFrom.
func (p *Poly) ReadFrom(r io.Reader) (int64, error) {
	header := make([]byte, polyHeaderSize)
	read, err := io.ReadFull(r, header)
	total := int64(read)
	if err != nil {
		return total, err
	}
	if header[0] != polyFormatVersion {
		return total, fmt.Errorf("ring: unsupported polynomial format version %d", header[0])
	}
	// Reject undefined flag bits and nonzero reserved bytes: accepting them
	// would make deserialize ∘ serialize lossy (found by FuzzPolyReadFrom).
	if header[1]&^uint8(1) != 0 {
		return total, fmt.Errorf("ring: unknown polynomial flags %#x", header[1])
	}
	if header[8] != 0 || header[9] != 0 || header[10] != 0 || header[11] != 0 {
		return total, fmt.Errorf("ring: nonzero reserved polynomial header bytes")
	}
	limbs := int(binary.LittleEndian.Uint16(header[2:]))
	n := int(binary.LittleEndian.Uint32(header[4:]))
	if limbs == 0 || n == 0 || n&(n-1) != 0 || n > 1<<20 || limbs > 1<<12 {
		return total, fmt.Errorf("ring: implausible polynomial shape %d limbs × %d coeffs", limbs, n)
	}
	p.IsNTT = header[1]&1 == 1
	// Allocate limb words only as their bytes actually arrive: the header
	// alone must not be able to commit us to limbs×n words (a hostile
	// 12-byte header could otherwise demand a 32 GB up-front allocation).
	// The payload is staged through a chunk of at most readChunk bytes. A
	// limb that fits one chunk is decoded straight into its own
	// allocation; a longer one is decoded into one piece per chunk, of
	// exactly the words read, and the pieces are joined once the limb is
	// complete. Allocation therefore stays below twice the bytes consumed
	// plus the staging chunk, however large the header claims n is.
	p.Coeffs = make([][]uint64, 0, min(limbs, maxPresizedLimbs))
	chunk := make([]byte, min(8*n, readChunk))
	var pieces [][]uint64
	for i := 0; i < limbs; i++ {
		pieces = pieces[:0]
		for j := 0; j < n; {
			m := min(n-j, len(chunk)/8)
			read, err = io.ReadFull(r, chunk[:8*m])
			total += int64(read)
			if err != nil {
				return total, err
			}
			piece := make([]uint64, m)
			for k := range piece {
				piece[k] = binary.LittleEndian.Uint64(chunk[8*k:])
			}
			pieces = append(pieces, piece)
			j += m
		}
		limb := pieces[0]
		if len(pieces) > 1 {
			limb = slices.Concat(pieces...)
		}
		p.Coeffs = append(p.Coeffs, limb)
	}
	return total, nil
}

// readChunk bounds ReadFrom's staging buffer. At 64 KiB it holds a whole
// limb for N ≤ 2^13, so those reads stage each limb in one piece.
const readChunk = 64 << 10

// maxPresizedLimbs caps the limb-slice capacity ReadFrom takes from an
// unverified header; a longer polynomial grows the slice as limbs arrive.
const maxPresizedLimbs = 64

// SerializedSize returns the exact byte size WriteTo will produce.
func (p *Poly) SerializedSize() int {
	if len(p.Coeffs) == 0 {
		return 12
	}
	return 12 + 8*len(p.Coeffs)*len(p.Coeffs[0])
}
