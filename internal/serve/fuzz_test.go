package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// FuzzCursorDecode hammers the opaque-token codec: whatever bytes a
// client sends, decodeCursor must either return an error or a token
// that round-trips exactly — never panic, and never "validate" a token
// the checksum or codec version does not actually cover.
func FuzzCursorDecode(f *testing.F) {
	// Valid tokens across the query kinds, so the mutator starts from
	// structures that pass every layer of validation.
	seeds := []cursor{
		{Graph: "g", Gen: 0, Kind: "triangles", Algorithm: "cacheaware"},
		{Graph: "g", Gen: 3, Kind: "triangles", Algorithm: "colorcoded", Seed: 7, Pos: 41},
		{Graph: "social", Gen: 12, Kind: "cliques", K: 5, Pos: 1 << 40},
		{Graph: "g", Gen: 1, Kind: "match", Pattern: "diamond", Pos: 9},
		// Cross-graph replay: valid codec-wise, rejected by the handler.
		{Graph: "other", Gen: 3, Kind: "triangles", Pos: 2},
	}
	for _, c := range seeds {
		tok := encodeCursor(c)
		f.Add(tok)
		// Truncations at both ends and a corrupted checksum digit.
		f.Add(tok[:len(tok)-1])
		f.Add(tok[1:])
		if tok[len(tok)-1] == '0' {
			f.Add(tok[:len(tok)-1] + "1")
		} else {
			f.Add(tok[:len(tok)-1] + "0")
		}
	}
	f.Add("")
	f.Add(".")
	f.Add("garbage")
	f.Add(strings.Repeat(".", 32))
	f.Add("eyJ2IjoxfQ.00000000")

	f.Fuzz(func(t *testing.T, tok string) {
		c, err := decodeCursor(tok)
		if err != nil {
			return
		}
		// Anything that decodes must be a current-version token whose
		// canonical re-encoding decodes back to the identical cursor:
		// a forged or mangled token cannot smuggle in state the codec
		// would not mint itself.
		if c.V != cursorVersion {
			t.Fatalf("decodeCursor(%q) accepted version %d", tok, c.V)
		}
		re := encodeCursor(c)
		c2, err := decodeCursor(re)
		if err != nil {
			t.Fatalf("re-encoded cursor %q does not decode: %v", re, err)
		}
		if c2 != c {
			t.Fatalf("round trip drift: %+v -> %+v", c, c2)
		}
	})
}

// Malformed or misdirected cursors reaching the HTTP layer are always a
// 4xx — the codec's error paths and the handler's graph check map to
// client errors, never a 5xx or a served stream.
func TestCursorMalformedAlways4xx(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, "g", "gnm:n=60,m=300", repro.Options{Seed: 5})
	crossGraph := encodeCursor(cursor{Graph: "other", Kind: "triangles", Pos: 1})
	valid := encodeCursor(cursor{Graph: "g", Kind: "triangles", Algorithm: "cacheaware"})
	for _, tok := range []string{
		"garbage",
		".",
		valid[:len(valid)-2],
		valid[2:],
		strings.ToUpper(valid),
		crossGraph,
	} {
		raw, _, status, err := tryQuery(ts.URL, "g", "", QueryRequest{Cursor: tok})
		if err != nil {
			t.Fatalf("cursor %q: transport error %v", tok, err)
		}
		if status < 400 || status >= 500 {
			t.Errorf("cursor %q: want 4xx, got %d (%s)", tok, status, raw)
		}
	}
	if _, _, status, _ := tryQuery(ts.URL, "g", "", QueryRequest{Cursor: valid}); status != http.StatusOK {
		t.Errorf("control cursor rejected with %d", status)
	}
}

// FuzzQueryRequest posts arbitrary bodies to the graph query handler. The
// daemon must answer every one without a panic or a 5xx: a 400 or 413
// carries an ErrorResponse, and a streamed answer ends in a trailer that
// reports no producer error.
func FuzzQueryRequest(f *testing.F) {
	g, err := repro.Build(repro.FromSpec("gnm:n=60,m=300"), repro.Options{Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	s := New(Config{})
	if err := s.AddGraph("g", g, ""); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()

	for _, c := range familyValidationCases {
		f.Add([]byte(c.body))
	}
	for _, body := range []string{
		``, `{}`, `null`, `[]`, `{"kind":"cliques","k":4}`,
		`{"kind":"match","pattern":"diamond","ordered":true}`,
		`{"algorithm":"deterministic","workers":4,"native":true}`,
		`{"limit":3,"seed":9}`, `{"cursor":"garbage"}`,
		`{"kind":"cliques","k":1000000000000}`, `{"workers":1000000000}`,
		`{"kind":"cliques","k":1000000000000,"ordered":true}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/graphs/g/query", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code >= 500:
			t.Fatalf("body %q: status %d (%s)", body, code, rec.Body.Bytes())
		case code == http.StatusBadRequest || code == http.StatusRequestEntityTooLarge:
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("body %q: %d without an ErrorResponse: %q", body, code, rec.Body.Bytes())
			}
		case code == http.StatusOK:
			lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
			var tr QueryTrailer
			if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || tr.Error != "" {
				t.Fatalf("body %q: stream ends in %q", body, lines[len(lines)-1])
			}
		}
	})
}
