package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ckks"
	"repro/internal/prng"
)

// ctJSON and evalResponse are the former reply types: json.Encoder of
// them is the byte reference for the codec's replies.
type ctJSON struct {
	Ct    string  `json:"ct"`
	Level int     `json:"level"`
	Scale float64 `json:"scale"`
	Bytes int     `json:"bytes"`
}

type evalResponse struct {
	ctJSON
	Op      string `json:"op"`
	Repeat  int    `json:"repeat"`
	Guarded bool   `json:"guarded,omitempty"`
}

// refDecodeBody, decodeCt and encodeCt are the server's former codec —
// json.Decoder over the body, base64.DecodeString, Ciphertext.ReadFrom on
// the way in; WriteTo, EncodeToString and json.Encoder on the way out —
// kept as the reference the wire codec must match.
func refDecodeBody(body []byte, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBody))
	if err := dec.Decode(into); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}

func decodeCt(field, b64 string) (*ckks.Ciphertext, error) {
	if b64 == "" {
		return nil, badRequest("missing ciphertext field %q", field)
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, badRequest("field %q: bad base64: %v", field, err)
	}
	ct := &ckks.Ciphertext{}
	if _, err := ct.ReadFrom(bytes.NewReader(raw)); err != nil {
		return nil, badRequest("field %q: bad ciphertext: %v", field, err)
	}
	return ct, nil
}

func encodeCt(ct *ckks.Ciphertext) (ctJSON, error) {
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		return ctJSON{}, err
	}
	return ctJSON{
		Ct:    base64.StdEncoding.EncodeToString(buf.Bytes()),
		Level: ct.Level,
		Scale: ct.Scale,
		Bytes: buf.Len(),
	}, nil
}

// refDecodeEval is the former eval request path: the body, then a, then
// b when it is not empty.
func refDecodeEval(body []byte) (req evalRequest, a, b *ckks.Ciphertext, err error) {
	if err = refDecodeBody(body, &req); err != nil {
		return req, nil, nil, err
	}
	if a, err = decodeCt("a", req.A); err != nil {
		return req, nil, nil, err
	}
	if req.B != "" {
		if b, err = decodeCt("b", req.B); err != nil {
			return req, nil, nil, err
		}
	}
	return req, a, b, nil
}

// refDecodeCt is the former decrypt (and, with its one field, bootstrap)
// request path, and the reply path: the body into v, then the ciphertext
// in its field ct.
func refDecodeCt(body []byte, v any, ct *string) (*ckks.Ciphertext, error) {
	if err := refDecodeBody(body, v); err != nil {
		return nil, err
	}
	return decodeCt("ct", *ct)
}

// wireTestCt encrypts zeros under a fixed key at the given shape (the
// server's tenant chain: one 50-bit prime plus levels 40-bit primes).
func wireTestCt(tb testing.TB, logN, levels int) *ckks.Ciphertext {
	tb.Helper()
	logQ := []int{50}
	for i := 0; i < levels; i++ {
		logQ = append(logQ, 40)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{LogN: logN, LogQ: logQ, LogP: []int{50, 50}, LogScale: 40})
	if err != nil {
		tb.Fatal(err)
	}
	src := prng.NewSource([prng.SeedSize]byte{'w', 'i', 'r', 'e'})
	sk := ckks.NewKeyGenerator(params, src).GenSecretKey()
	return ckks.NewSecretKeyEncryptor(params, sk, src).Encrypt(ckks.NewEncoder(params).Encode(make([]complex128, params.Slots())))
}

func ctBytes(tb testing.TB, ct *ckks.Ciphertext) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := ct.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func bodyRequest(body []byte) *http.Request {
	return &http.Request{Body: io.NopCloser(bytes.NewReader(body))}
}

// FuzzWireDecode holds the wire codec to the former one: for every body,
// as an eval request (decrypt false), or as a decrypt request and as the
// ciphertext reply a Client decodes, both accept or both answer 400, and
// on acceptance they agree on every field and on every ciphertext word.
func FuzzWireDecode(f *testing.F) {
	raw := ctBytes(f, wireTestCt(f, 5, 1))
	b64 := base64.StdEncoding.EncodeToString(raw)
	if !strings.Contains(b64, "/") || !strings.HasSuffix(b64, "=") {
		f.Fatalf("the seed ciphertext's base64 needs a '/' and padding: %s", b64)
	}
	hostile := func(edit func([]byte)) string {
		b := append([]byte(nil), raw...)
		edit(b)
		return base64.StdEncoding.EncodeToString(b)
	}
	values := map[string]string{
		"$CT":       b64,
		"$SLASHESC": strings.ReplaceAll(b64, "/", `\/`),
		"$NLESC":    b64[:8] + `\n` + b64[8:],
		"$RAWNL":    b64[:8] + "\n" + b64[8:],
		"$EXTRA":    base64.StdEncoding.EncodeToString(append(append([]byte(nil), raw...), "extra"...)),
		"$NOPAD":    strings.TrimRight(b64, "="),
		"$BADTAIL":  b64 + "!!!!",
		"$HALF":     base64.StdEncoding.EncodeToString(raw[:len(raw)/2]),
		"$HEADER":   base64.StdEncoding.EncodeToString(raw[:16]),
		"$LEVEL7":   hostile(func(b []byte) { binary.LittleEndian.PutUint16(b[2:], 7) }),
		"$LEVELMAX": hostile(func(b []byte) { binary.LittleEndian.PutUint16(b[2:], 0xffff) }),
		"$NAN":      hostile(func(b []byte) { binary.LittleEndian.PutUint64(b[8:], 0x7ff8000000000001) }),
	}
	// $K is the ciphertext key (a, or ct for decrypt), $U the same key
	// with a different case, $O the other member (b, or n for decrypt).
	templates := []string{
		`{"op":"add","$K":"$CT","b":"$CT","by":3,"repeat":2,"guard":true,"n":4}`,
		`{"op":"rotate","$K":"$SLASHESC"}`,
		`{"$K":"$NLESC"}`,
		`{"$K":"$RAWNL"}`,
		`{"$U":"$CT","B":"$CT"}`,
		`{"$K":"$CT","$K":"AAAA"}`,
		`{"$K":"AAAA","$U":"$CT"}`,
		`{"$K":"x\/y","$K":"$CT"}`,
		`{"$K":"$CT","$K":"x\/y"}`,
		`{"$K":"$CT","$U":null}`,
		`{"$K":null}`,
		`{"$K":5}`,
		`{"$K":"$CT","b":""}`,
		`{"$K":"$CT","b":null,"n":"4"}`,
		`null`, `"$CT"`, `["$CT"]`, `5`, ``, `   `, `{}`, `{`, `{"$K"`, `{"$K":"$CT"`, `{"$K":"$CT`,
		`{"$K":"$CT"} trailing garbage`,
		`{"$K":"$CT"}{"$K":1}`,
		`{"$K":"$CT",}`,
		`{"$K":"$CT" "b":1}`,
		`{"$K":"$EXTRA"}`,
		`{"$K":"$NOPAD"}`,
		`{"$K":"$BADTAIL"}`,
		`{"$K":"$HALF"}`, `{"$K":"$HEADER"}`, `{"$K":"$LEVEL7"}`, `{"$K":"$LEVELMAX"}`, `{"$K":"$NAN"}`,
		`{"x":{"$K":"AAAA","y":["$K",{"b":"}"}]},"$K":"$CT","z":-1.5e3,"t":true,"$O":1}`,
		`{"\u0061":"$CT","\u0063t":"$CT"}`,
		` { "$K" : "$CT" , "$O" : 2 } `,
		`{"$K":tru,"$O":"$CT"}`,
		`{"x\"":"\",\"$K\":\"","$K":"$CT","y":"\\"}`,
		`{"$K":"$CT","$O":[1,2}`,
		`{"$K":"$CT","level":1,"scale":1099511627776,"bytes":48,"op":"rotate","repeat":2,"guarded":true}`,
		`{"level":0,"scale":1.5e-3,"$K":"$SLASHESC","bytes":-1,"op":null}`,
	}
	for _, decrypt := range []bool{false, true} {
		k, u, o := "a", "A", "b"
		if decrypt {
			k, u, o = "ct", "Ct", "n"
		}
		for _, tmpl := range templates {
			body := strings.NewReplacer("$K", k, "$U", u, "$O", o).Replace(tmpl)
			for name, v := range values {
				body = strings.ReplaceAll(body, name, v)
			}
			f.Add(decrypt, []byte(body))
		}
	}

	f.Fuzz(func(t *testing.T, decrypt bool, body []byte) {
		if got, want := hasControl(body), bytes.ContainsFunc(body, func(r rune) bool { return r < 0x20 }); got != want {
			t.Fatalf("hasControl = %v, want %v", got, want)
		}
		s := &Server{}
		if decrypt {
			var rep, wantRep ctReply
			var rct *ckks.Ciphertext
			repErr := decodeWire(body, &rep, []ctField{{key: "ct", str: &rep.Ct, dst: &rct}})
			wantRct, wantRepErr := refDecodeCt(body, &wantRep, &wantRep.Ct)
			if sameVerdict(t, body, repErr, wantRepErr) {
				rep.Ct, wantRep.Ct = "", ""
				if rep != wantRep {
					t.Fatalf("reply %+v, want %+v", rep, wantRep)
				}
				sameCt(t, "reply ct", rct, wantRct)
			}

			var req decryptRequest
			var ct *ckks.Ciphertext
			err := s.decode(bodyRequest(body), &req, ctField{key: "ct", str: &req.Ct, dst: &ct})
			var want decryptRequest
			wantCt, wantErr := refDecodeCt(body, &want, &want.Ct)
			if !sameVerdict(t, body, err, wantErr) {
				return
			}
			if req.N != want.N {
				t.Fatalf("n = %d, want %d", req.N, want.N)
			}
			sameCt(t, "ct", ct, wantCt)
			return
		}
		var req evalRequest
		a, b, err := s.decodeEval(bodyRequest(body), &req)
		want, wantA, wantB, wantErr := refDecodeEval(body)
		if !sameVerdict(t, body, err, wantErr) {
			return
		}
		if req.Op != want.Op || req.By != want.By || req.Repeat != want.Repeat || req.Guard != want.Guard {
			t.Fatalf("decoded %+v, want %+v", req, want)
		}
		sameCt(t, "a", a, wantA)
		sameCt(t, "b", b, wantB)
	})
}

// TestHasControl holds the word-at-a-time scan to a byte loop, with one
// byte of each class at every offset of bodies that straddle the 32-byte
// stride.
func TestHasControl(t *testing.T) {
	for n := 0; n <= 70; n++ {
		for pos := 0; pos < n; pos++ {
			for _, c := range []byte{0x00, 0x0a, 0x1f, 0x20, 0x21, 0x7f, 0x80, 0x9f, 0xa0, 0xff} {
				b := bytes.Repeat([]byte{'A'}, n)
				b[pos] = c
				if got, want := hasControl(b), c < 0x20; got != want {
					t.Fatalf("len %d, byte %#x at %d: hasControl = %v", n, c, pos, got)
				}
			}
		}
	}
}

// sameVerdict fails unless both paths accept or both answer 400, and
// reports whether they accepted.
func sameVerdict(t *testing.T, body []byte, got, want error) bool {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("body %.120q: codec error %v, reference error %v", body, got, want)
	}
	gs, _ := wireError(got)
	ws, _ := wireError(want)
	if got != nil && (gs != http.StatusBadRequest || ws != http.StatusBadRequest) {
		t.Fatalf("body %.120q: statuses %d and %d, want 400 (%v; %v)", body, gs, ws, got, want)
	}
	return got == nil
}

func sameCt(t *testing.T, field string, got, want *ckks.Ciphertext) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: codec %v, reference %v", field, got != nil, want != nil)
	}
	if got != nil && !bytes.Equal(ctBytes(t, got), ctBytes(t, want)) {
		t.Fatalf("%s: the codec's ciphertext differs from the reference's", field)
	}
}

// TestWireReplyBytes: every ciphertext reply — encrypt, eval, rotate
// (guarded) and bootstrap — is byte for byte what json.Encoder wrote for
// the former reply types, sent unchunked with its Content-Length.
func TestWireReplyBytes(t *testing.T) {
	_, base := startServer(t, Config{Slots: 2, Queue: 2, Chaos: true})
	makeTenant(t, base, "wire", TenantConfig{LogN: 10, Levels: 2})

	post := func(path string, req any) []byte {
		t.Helper()
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v, for a %d-byte body",
				path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		return body
	}
	// check re-encodes the reply's own ciphertext the former way.
	check := func(name string, body []byte, wrap func(ctJSON) any) string {
		t.Helper()
		var got ctJSON
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		ct, err := decodeCt("ct", got.Ct)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := encodeCt(ct)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(wrap(ref)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s reply differs from json.Encoder's:\n got %.200s…\nwant %.200s…", name, body, want.Bytes())
		}
		return got.Ct
	}
	asCt := func(c ctJSON) any { return c }

	ct := check("encrypt", post("/v1/tenants/wire/encrypt", encryptRequest{Values: []float64{1, -2.5, 3}}), asCt)
	check("eval", post("/v1/tenants/wire/eval", evalRequest{Op: "add", A: ct, B: ct}),
		func(c ctJSON) any { return evalResponse{ctJSON: c, Op: "add", Repeat: 1} })
	check("rotate", post("/v1/tenants/wire/rotate", evalRequest{A: ct, By: 1, Repeat: 2, Guard: true}),
		func(c ctJSON) any { return evalResponse{ctJSON: c, Op: "rotate", Repeat: 2, Guarded: true} })

	if testing.Short() {
		t.Skip("bootstrap keygen is expensive; the bootstrap reply is skipped in -short mode")
	}
	low, err := encodeCt(bootTenant(t, base, "wireboot"))
	if err != nil {
		t.Fatal(err)
	}
	check("bootstrap", post("/v1/tenants/wireboot/bootstrap", bootstrapRequest{Ct: low.Ct}), asCt)
}

// TestWireRequestBytes: every request body the Client builds with a
// ciphertext — encrypt, eval with and without b, rotate, decrypt and
// bootstrap, with and without metadata — is byte for byte json.Marshal
// of its request type with the base64 strings filled in.
func TestWireRequestBytes(t *testing.T) {
	bodies := make(chan []byte, 16) // one per case
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies <- body
		writeError(w, ErrDraining, 0)
	}))
	defer stub.Close()
	c, ctx := NewClient(stub.URL), t.Context()
	ct := wireTestCt(t, 5, 1)
	b64 := base64.StdEncoding.EncodeToString(ctBytes(t, ct))
	vals := []float64{1, -2.5}

	for _, tc := range []struct {
		name string
		err  error
		want any
	}{
		{"encrypt", errOf(c.Encrypt(ctx, "w", vals)), encryptRequest{Values: vals}},
		{"eval a b", errOf(c.Eval(ctx, "w", ct, ct, EvalArgs{Op: "mul", Repeat: 2})), evalRequest{A: b64, B: b64, Op: "mul", Repeat: 2}},
		{"eval a", errOf(c.Eval(ctx, "w", ct, nil, EvalArgs{Op: "rotate", By: -3, Guard: true})), evalRequest{A: b64, Op: "rotate", By: -3, Guard: true}},
		{"rotate", errOf(c.Rotate(ctx, "w", ct, EvalArgs{By: 5})), evalRequest{A: b64, By: 5}},
		{"rotate, no metadata", errOf(c.Rotate(ctx, "w", ct, EvalArgs{})), evalRequest{A: b64}},
		{"decrypt", errOf(c.Decrypt(ctx, "w", ct, 3)), decryptRequest{Ct: b64, N: 3}},
		{"decrypt, no metadata", errOf(c.Decrypt(ctx, "w", ct, 0)), decryptRequest{Ct: b64}},
		{"bootstrap", errOf(c.Bootstrap(ctx, "w", ct)), bootstrapRequest{Ct: b64}},
		{"not an object, no ciphertext", c.call(ctx, http.MethodPost, "/v1/tenants/w/eval", "not an object", nil, nil), "not an object"},
	} {
		want, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if got := <-bodies; !errors.Is(tc.err, ErrDraining) || !bytes.Equal(got, want) {
			t.Errorf("%s (%v): body differs from json.Marshal's:\n got %.200s…\nwant %.200s…", tc.name, tc.err, got, want)
		}
	}
}

// BenchmarkWireCodec times the request and reply codec on the fhed_mixed
// tenant shape (logN 11, 5 limbs), against the former codec
// (reference): in/1ct is a rotate body, in/2ct a mul body, out a rotate
// reply written to a discarding ResponseWriter.
//
//	go test -run NONE -bench WireCodec -benchmem ./internal/server
func BenchmarkWireCodec(b *testing.B) {
	ct := wireTestCt(b, 11, 4)
	ref, err := encodeCt(ct)
	if err != nil {
		b.Fatal(err)
	}
	bodies := []struct {
		name string
		req  evalRequest
	}{
		{"1ct", evalRequest{Op: "rotate", A: ref.Ct, By: 1, Repeat: 4}},
		{"2ct", evalRequest{Op: "mul", A: ref.Ct, B: ref.Ct}},
	}
	for _, in := range bodies {
		body, err := json.Marshal(in.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("in/"+in.name+"/codec", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			s := &Server{}
			rd := bytes.NewReader(nil)
			r := &http.Request{Body: io.NopCloser(rd)}
			for b.Loop() {
				rd.Reset(body)
				var req evalRequest
				if _, _, err := s.decodeEval(r, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("in/"+in.name+"/reference", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, _, err := refDecodeEval(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	w := discardResponse{http.Header{}}
	b.Run("out/codec", func(b *testing.B) {
		b.ReportAllocs()
		s := &Server{}
		for b.Loop() {
			meta := evalReply{Op: "rotate", Repeat: 4}
			rep, err := s.encodeReply(ct, &meta.ctReply, &meta)
			if err != nil {
				b.Fatal(err)
			}
			rep.write(w)
		}
	})
	b.Run("out/reference", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			out, err := encodeCt(ct)
			if err != nil {
				b.Fatal(err)
			}
			writeJSON(w, evalResponse{ctJSON: out, Op: "rotate", Repeat: 4})
		}
	})
}

// discardResponse is a ResponseWriter that drops the body.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header         { return d.h }
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d discardResponse) WriteHeader(int)             {}
