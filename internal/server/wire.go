package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/ckks"
)

// The data-plane codec. A ciphertext travels as the base64 of its binary
// serialization inside a JSON string, and that string is nearly the whole
// body, so the codec moves it between wire bytes and limb words without
// encoding/json's byte-at-a-time scanner:
//
//   - In: the body is read once into a pooled buffer. One walk over the
//     top-level object finds each ciphertext member whose value is a string
//     without escapes; its closing quote is found with bytes.IndexByte, its
//     base64 is decoded into one pooled buffer and Ciphertext.ReadFrom reads
//     the limbs. Everything else — keys, small values, values with escapes,
//     unknown members, non-object bodies — goes to encoding/json as a copy
//     of the body with those strings emptied, so key matching (exact, then
//     case-insensitive), last-duplicate-wins and every syntax error stay
//     encoding/json's.
//   - Out: the reply is `{"ct":"` + base64 of WriteTo + `",` + the
//     json.Marshal'd metadata without its `{`, plus the newline
//     json.Encoder adds: byte for byte what json.Encoder wrote, sent with
//     one Write and a Content-Length.

// maxBody bounds a request body.
const maxBody = 64 << 20

// wireBufs recycles the codec's byte slices: request bodies, decoded
// ciphertexts, serialized ciphertexts and replies.
var wireBufs sync.Pool // of *[]byte

func getBuf() *[]byte {
	if p, ok := wireBufs.Get().(*[]byte); ok {
		*p = (*p)[:0]
		return p
	}
	return new([]byte)
}

func putBuf(p *[]byte) { wireBufs.Put(p) }

// ctField is one ciphertext member of a request body. Its key must not
// fold-equal the JSON name of any other field of the request.
type ctField struct {
	key string
	// str is the request's string field for key: it holds the member's
	// value whenever encoding/json, not the walk, decoded it.
	str      *string
	dst      **ckks.Ciphertext
	optional bool // empty or absent leaves *dst nil instead of a 400
}

// decode reads r's body into req and the ciphertext members cts.
func (s *Server) decode(r *http.Request, req any, cts ...ctField) error {
	sp := s.rec.StartLinked("fhed.codec.decode")
	defer sp.End()
	p := getBuf()
	defer putBuf(p)
	var err error
	if *p, err = readAll(http.MaxBytesReader(nil, r.Body, maxBody), *p); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return decodeWire(*p, req, cts)
}

// readAll appends everything r yields to b.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// decodeWire decodes the JSON body into req, as json.Decoder.Decode
// would, and the members named by cts into ciphertexts. Nothing it
// returns refers to body.
func decodeWire(body []byte, req any, cts []ctField) error {
	last := make([]member, len(cts))
	shadow := body
	if len(cts) > 0 {
		if sh, ok := walkObject(body, cts, last); ok {
			shadow = sh
		} else {
			clear(last)
		}
	}
	if err := json.NewDecoder(bytes.NewReader(shadow)).Decode(req); err != nil {
		return badRequest("bad request body: %v", err)
	}
	for i, f := range cts {
		b64 := last[i].raw
		if !last[i].plain {
			b64 = []byte(*f.str)
		}
		if len(b64) == 0 {
			if f.optional {
				continue
			}
			return badRequest("missing ciphertext field %q", f.key)
		}
		ct, err := readCt(f.key, b64)
		if err != nil {
			return err
		}
		*f.dst = ct
	}
	return nil
}

// readCt decodes one base64 ciphertext through a pooled buffer.
func readCt(key string, b64 []byte) (*ckks.Ciphertext, error) {
	p := getBuf()
	defer putBuf(p)
	*p = slices.Grow(*p, base64.StdEncoding.DecodedLen(len(b64)))
	raw, err := base64.StdEncoding.AppendDecode(*p, b64)
	if err != nil {
		return nil, badRequest("field %q: bad base64: %v", key, err)
	}
	ct := &ckks.Ciphertext{}
	if _, err := ct.ReadFrom(bytes.NewReader(raw)); err != nil {
		return nil, badRequest("field %q: bad ciphertext: %v", key, err)
	}
	return ct, nil
}

// member is the last top-level string member that names a ctField.
// plain: the walk took its value (raw, a slice of the body) and emptied
// it in the shadow; otherwise encoding/json decodes it into the field.
type member struct {
	raw   []byte
	plain bool
}

// walkObject walks the top-level object of body, filling last, and
// returns the shadow: body up to the object's closing brace with every
// plain ciphertext string emptied. ok is false when the walk cannot
// follow the body (not an object, a syntax error, truncation); the caller
// then hands the whole body to encoding/json. A walk that succeeds only
// empties string interiors at positions where encoding/json's scanner
// also sees a string, so the shadow is well-formed exactly when the body
// is.
func walkObject(body []byte, cts []ctField, last []member) (shadow []byte, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, false
	}
	var keep int // body[keep:i] is still to be copied into shadow
	if i = skipSpace(body, i+1); i < len(body) && body[i] == '}' {
		return body[:i+1], true
	}
	for {
		if i == len(body) || body[i] != '"' {
			return nil, false
		}
		kEnd, plain := stringEnd(body, i)
		if kEnd < 0 {
			return nil, false
		}
		key := body[i+1 : kEnd-1]
		if !plain {
			var k string
			if json.Unmarshal(body[i:kEnd], &k) != nil {
				return nil, false
			}
			key = []byte(k)
		}
		field := -1
		for f := range cts {
			if bytes.EqualFold(key, []byte(cts[f].key)) {
				field = f
			}
		}
		if i = skipSpace(body, kEnd); i == len(body) || body[i] != ':' {
			return nil, false
		}
		if i = skipSpace(body, i+1); i == len(body) {
			return nil, false
		}
		var end int
		if body[i] == '"' {
			end, plain = stringEnd(body, i)
			if end >= 0 && field >= 0 {
				value := body[i+1 : end-1]
				// A raw control byte is a syntax error: leave it for
				// encoding/json to report (base64 would skip \r and \n).
				plain = plain && !hasControl(value)
				last[field] = member{plain: plain}
				if plain {
					last[field].raw = value
					shadow = append(shadow, body[keep:i+1]...)
					keep = end - 1
				}
			}
		} else {
			end = skipValue(body, i)
		}
		if end < 0 {
			return nil, false
		}
		i = skipSpace(body, end)
		if i < len(body) && body[i] == ',' {
			i = skipSpace(body, i+1)
			continue
		}
		if i < len(body) && body[i] == '}' {
			break
		}
		return nil, false
	}
	if keep == 0 {
		return body[:i+1], true
	}
	return append(shadow, body[keep:i+1]...), true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// stringEnd returns the index just past the string that opens at b[i],
// or -1 when it does not close; plain reports a string without escapes.
func stringEnd(b []byte, i int) (end int, plain bool) {
	j := bytes.IndexByte(b[i+1:], '"')
	if j < 0 {
		return -1, false
	}
	if bytes.IndexByte(b[i+1:i+1+j], '\\') < 0 {
		return i + 2 + j, true
	}
	for k := i + 1; k < len(b); k++ {
		switch b[k] {
		case '\\':
			k++
		case '"':
			return k + 1, false
		}
	}
	return -1, false
}

// skipValue returns the index just past the non-string value at b[i], or
// -1. It follows nesting and strings only; encoding/json checks the rest.
func skipValue(b []byte, i int) int {
	depth := 0
	for k := i; k < len(b); k++ {
		switch c := b[k]; c {
		case '"':
			if k == i {
				return -1
			}
			end, _ := stringEnd(b, k)
			if end < 0 {
				return -1
			}
			k = end - 1
		case '{', '[':
			depth++
		case '}', ']', ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				if k == i {
					return -1
				}
				return k
			}
			if c == '}' || c == ']' {
				if depth--; depth == 0 {
					return k + 1
				}
			}
		}
	}
	return -1
}

// hasControl reports whether b holds a byte below 0x20, 32 at a time: a
// word x holds one exactly when (x - 0x20…20) &^ x has a byte's top bit.
func hasControl(b []byte) bool {
	const lo, hi = 0x2020202020202020, 0x8080808080808080
	for ; len(b) >= 32; b = b[32:] {
		x0 := binary.LittleEndian.Uint64(b)
		x1 := binary.LittleEndian.Uint64(b[8:])
		x2 := binary.LittleEndian.Uint64(b[16:])
		x3 := binary.LittleEndian.Uint64(b[24:])
		if ((x0-lo)&^x0|(x1-lo)&^x1|(x2-lo)&^x2|(x3-lo)&^x3)&hi != 0 {
			return true
		}
	}
	for _, c := range b {
		if c < 0x20 {
			return true
		}
	}
	return false
}

// --- replies -------------------------------------------------------

// ctJSON is a ciphertext reply as a client decodes it: base64 of the
// binary serialization plus the metadata a client wants without decoding.
type ctJSON struct {
	Ct    string  `json:"ct"`
	Level int     `json:"level"`
	Scale float64 `json:"scale"`
	Bytes int     `json:"bytes"`
}

// ctMeta is the metadata that follows "ct" in every ciphertext reply.
type ctMeta struct {
	Level int     `json:"level"`
	Scale float64 `json:"scale"`
	Bytes int     `json:"bytes"`
}

// evalMeta is the metadata of an eval or rotate reply.
type evalMeta struct {
	ctMeta
	Op      string `json:"op"`
	Repeat  int    `json:"repeat"`
	Guarded bool   `json:"guarded,omitempty"`
}

// wireReply is an encoded 200 body in a pooled buffer; dataPlane writes
// it and recycles the buffer.
type wireReply struct{ body *[]byte }

// encodeReply encodes ct and its metadata: it fills *meta, which full
// (meta itself or the struct that embeds it) carries to json.Marshal.
func (s *Server) encodeReply(ct *ckks.Ciphertext, meta *ctMeta, full any) (*wireReply, error) {
	sp := s.rec.StartLinked("fhed.codec.encode")
	defer sp.End()
	raw := getBuf()
	defer putBuf(raw)
	if _, err := ct.WriteTo((*sliceWriter)(raw)); err != nil {
		return nil, err
	}
	*meta = ctMeta{Level: ct.Level, Scale: ct.Scale, Bytes: len(*raw)}
	m, err := json.Marshal(full)
	if err != nil {
		return nil, err
	}
	const open, mid = `{"ct":"`, `",`
	out := getBuf()
	b := slices.Grow(*out, len(open)+base64.StdEncoding.EncodedLen(len(*raw))+len(mid)+len(m))
	b = append(b, open...)
	b = base64.StdEncoding.AppendEncode(b, *raw)
	b = append(b, mid...)
	b = append(append(b, m[1:]...), '\n')
	*out = b
	return &wireReply{body: out}, nil
}

// write sends the reply with one Write and recycles its buffer.
func (rep *wireReply) write(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(*rep.body)))
	_, _ = w.Write(*rep.body) // a client that went away gets nothing
	putBuf(rep.body)
}

// sliceWriter is the io.Writer Ciphertext.WriteTo appends to.
type sliceWriter []byte

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}
