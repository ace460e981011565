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

// WriteTo serializes the polynomial. It implements io.WriterTo.
func (p *Poly) WriteTo(w io.Writer) (int64, error) {
	if len(p.Coeffs) == 0 {
		return 0, fmt.Errorf("ring: cannot serialize an empty polynomial")
	}
	n := len(p.Coeffs[0])
	var flags uint8
	if p.IsNTT {
		flags = 1
	}
	header := make([]byte, 12)
	header[0] = polyFormatVersion
	header[1] = flags
	binary.LittleEndian.PutUint16(header[2:], uint16(len(p.Coeffs)))
	binary.LittleEndian.PutUint32(header[4:], uint32(n))
	// header[8:12] reserved.
	written, err := w.Write(header)
	total := int64(written)
	if err != nil {
		return total, err
	}
	buf := make([]byte, 8*n)
	for _, limb := range p.Coeffs {
		if len(limb) != n {
			return total, fmt.Errorf("ring: ragged limb lengths")
		}
		for j, v := range limb {
			binary.LittleEndian.PutUint64(buf[8*j:], v)
		}
		written, err = w.Write(buf)
		total += int64(written)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadFrom deserializes into p, replacing its contents. It implements
// io.ReaderFrom.
func (p *Poly) ReadFrom(r io.Reader) (int64, error) {
	header := make([]byte, 12)
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
