package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/cluster"
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
		// Positions naming a unit, valid and not.
		{Graph: "g", Gen: 2, Kind: "triangles", Algorithm: "cacheaware", Pos: 40, Unit: 3, UnitStart: 31},
		{Graph: "g", Gen: 2, Kind: "triangles", Algorithm: "cacheaware", Pos: 3, Unit: 2, UnitStart: 4},
		{Graph: "g", Gen: 2, Kind: "triangles", Algorithm: "oblivious", Ordered: true, Pos: 3, Unit: 1, UnitStart: 2},
		{Graph: "g", Gen: 2, Kind: "cliques", K: 4, Pos: 3, Unit: 1, UnitStart: 2},
		{Graph: "g", Gen: 2, Kind: "triangles", Algorithm: "deterministic", Pos: 3, Unit: 1 << 40, UnitStart: 3},
		{Graph: "g", Gen: 2, Kind: "triangles", Pos: 3, Unit: -1},
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
// client errors, never a 5xx or a served stream. So are well-formed
// tokens naming a position no stream of their query has
// (repro.ErrInvalidPosition), each answered 400 with an ErrorResponse.
func TestCursorMalformedAlways4xx(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, "g", "gnm:n=60,m=300", repro.Options{Seed: 5})
	crossGraph := encodeCursor(cursor{Graph: "other", Kind: "triangles", Pos: 1})
	valid := encodeCursor(cursor{Graph: "g", Kind: "triangles", Algorithm: "cacheaware"})
	position := func(c cursor) string {
		c.Graph = "g"
		if c.Kind == "" {
			c.Kind, c.Algorithm = "triangles", "cacheaware"
		}
		return encodeCursor(c)
	}
	for _, tok := range []string{
		"garbage",
		".",
		valid[:len(valid)-2],
		valid[2:],
		strings.ToUpper(valid),
		crossGraph,
		// The unit starts after the position.
		position(cursor{Pos: 3, Unit: 2, UnitStart: 4}),
		// A unit on an ordered stream, and on a query without units.
		position(cursor{Ordered: true, Pos: 3, Unit: 1, UnitStart: 2}),
		position(cursor{Kind: "triangles", Algorithm: "hutaochung", Pos: 3, Unit: 1, UnitStart: 2}),
		// A unit past the query's last: this graph is one color triple,
		// and one color tuple of a clique or a match.
		position(cursor{Kind: "cliques", K: 4, Pos: 3, Unit: 1, UnitStart: 2}),
		position(cursor{Kind: "match", Pattern: "diamond", Pos: 3, Unit: 1, UnitStart: 2}),
		position(cursor{Pos: 3, Unit: 1, UnitStart: 3}),
		position(cursor{Kind: "triangles", Algorithm: "oblivious", Pos: 3, Unit: 1 << 40, UnitStart: 3}),
		position(cursor{Kind: "triangles", Algorithm: "deterministic", Pos: 3, Unit: 1 << 20, UnitStart: 3}),
		// A negative unit, and a unit 0 that does not start the stream.
		position(cursor{Pos: 3, Unit: -1}),
		position(cursor{Pos: 3, UnitStart: 2}),
	} {
		raw, _, status, err := tryQuery(ts.URL, "g", "", QueryRequest{Cursor: tok})
		if err != nil {
			t.Fatalf("cursor %q: transport error %v", tok, err)
		}
		if status < 400 || status >= 500 {
			t.Errorf("cursor %q: want 4xx, got %d (%s)", tok, status, raw)
		}
		var e ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("cursor %q: %d without an ErrorResponse: %q", tok, status, raw)
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

// FuzzShardQueryRequest posts arbitrary bodies to the shard query handler
// of a 1-shard partition. The shard must answer every one without a
// panic or a 5xx: a 400, 409 or 413 carries an ErrorResponse, and a
// streamed answer ends in a done trailer with no error. Its seeds include
// a clique size that once made a shard allocate k words before checking
// it. Each request carries a 2 s deadline, well inside the fuzzing
// engine's 10 s limit per input: a legal query near the fan-out bound,
// such as 11-cliques over the partition's 4 colors (4^11 orderings), runs
// longer than that, and must then end as a timeout, not a 5xx.
func FuzzShardQueryRequest(f *testing.F) {
	g, err := repro.Build(repro.FromSpec("gnm:n=60,m=300"), repro.Options{Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	defer g.Close()
	pr, err := repro.Partition(context.Background(), g, repro.PartitionOptions{Dir: f.TempDir(), Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	man, err := cluster.Load(pr.ManifestPath)
	if err != nil {
		f.Fatal(err)
	}
	sg, _, err := repro.Open(pr.Shards[0].Image, repro.Options{})
	if err != nil {
		f.Fatal(err)
	}
	s := New(Config{})
	f.Cleanup(func() { s.Close() })
	if err := s.ServeShard(man, 0, sg); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	for _, c := range familyValidationCases {
		f.Add([]byte(c.body))
	}
	for _, body := range []string{
		``, `{}`, `null`, `[]`, `{"epoch":0}`, `{"epoch":3}`,
		`{"kind":"cliques","k":1000000000000}`, `{"kind":"cliques","k":22}`,
		`{"kind":"cliques","k":4,"workers":1000000000}`, `{"kind":"cliques","k":5,"native":true}`,
		`{"kind":"match","pattern":"house","workers":-1}`, `{"algorithm":"deterministic"}`,
		`{"kind":"cliques","k":9,"workers":1000000000}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, "POST", "/v1/cluster/shard/query", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code >= 500:
			t.Fatalf("body %q: status %d (%s)", body, code, rec.Body.Bytes())
		case code == http.StatusBadRequest || code == http.StatusConflict || code == http.StatusRequestEntityTooLarge:
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("body %q: %d without an ErrorResponse: %q", body, code, rec.Body.Bytes())
			}
		case code == http.StatusOK:
			lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
			var tr cluster.ShardQueryTrailer
			if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || !tr.Done || tr.Error != "" {
				t.Fatalf("body %q: stream ends in %q", body, lines[len(lines)-1])
			}
		}
	})
}

// nonPairEdges are edge lists with an element that is not a [u, v] pair
// of uint32s. encoding/json alone would decode [7] as {0, 7} and
// [1, 2, 3] as {1, 2}.
var nonPairEdges = []string{
	`[[7]]`,
	`[[1,2,3]]`,
	`[[1,2],[3],[4,5,6]]`,
	`[[]]`,
	`[null]`,
	`[[1,null]]`,
}

// TestNonPairEdgesRejected posts each non-pair edge list to the graph
// update, graph load, shard update and coordinator update endpoints.
// Each answers 400 with an ErrorResponse and changes nothing: no
// generation is installed, no graph loaded and no sub-delta staged.
func TestNonPairEdgesRejected(t *testing.T) {
	ctx := context.Background()
	opts := repro.Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, err := repro.Build(repro.FromSpec("gnm:n=60,m=240"), opts)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := repro.Partition(ctx, g, repro.PartitionOptions{Dir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	man, err := cluster.Load(pr.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	sg, _, err := repro.Open(pr.Shards[0].Image, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shard := New(Config{})
	t.Cleanup(func() { shard.Close() })
	if err := shard.AddGraph("g", g, ""); err != nil {
		t.Fatal(err)
	}
	if err := shard.ServeShard(man, 0, sg); err != nil {
		t.Fatal(err)
	}
	shardTS := httptest.NewServer(shard.Handler())
	t.Cleanup(shardTS.Close)
	cl, err := repro.DialCluster(ctx, pr.ManifestPath, []string{shardTS.URL}, repro.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	coord := New(Config{})
	t.Cleanup(func() { coord.Close() })
	if err := coord.ServeCoordinator(cl); err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)

	state := func() string {
		shard.shard.mu.Lock()
		defer shard.shard.mu.Unlock()
		return fmt.Sprintf("graph generation %d, graph h loaded %t, %d staged, shard generation %d, cluster epoch %d",
			g.Generation(), shard.lookup("h") != nil, len(shard.shard.staged), sg.Generation(), cl.Epoch())
	}
	want := state()
	endpoints := []struct{ url, body string }{ // %s is the edge list
		{shardTS.URL + "/v1/graphs/g/update", `{"add":%s}`},
		{shardTS.URL + "/v1/graphs/g/update", `{"remove":%s}`},
		{shardTS.URL + "/v1/graphs", `{"id":"h","edges":%s}`},
		{shardTS.URL + "/v1/cluster/shard/update", `{"phase":"prepare","update_id":1,"add":%s}`},
		{shardTS.URL + "/v1/cluster/shard/update", `{"phase":"prepare","update_id":1,"remove":%s}`},
		{coordTS.URL + "/v1/cluster/update", `{"add":%s}`},
		{coordTS.URL + "/v1/cluster/update", `{"remove":%s}`},
	}
	for _, edges := range nonPairEdges {
		for _, ep := range endpoints {
			body := fmt.Sprintf(ep.body, edges)
			resp, err := http.Post(ep.url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s %s: %v", ep.url, body, err)
			}
			var e ErrorResponse
			json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
				t.Errorf("%s %s: status %d (error %q), want 400 with an error", ep.url, body, resp.StatusCode, e.Error)
			}
			if got := state(); got != want {
				t.Fatalf("%s %s changed the state: %s, want %s", ep.url, body, got, want)
			}
		}
	}
}

// FuzzUpdateRequest posts arbitrary bodies to the graph update handler.
// The daemon must answer every one without a panic or a 5xx: a 400 or
// 413 carries an ErrorResponse, and a 200 answers only a body that
// decodes as add and remove lists of two-element arrays.
func FuzzUpdateRequest(f *testing.F) {
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

	for _, edges := range nonPairEdges {
		f.Add([]byte(`{"add":` + edges + `}`))
		f.Add([]byte(`{"remove":` + edges + `}`))
	}
	for _, body := range []string{
		``, `{}`, `null`, `[]`, `{"add":null}`, `{"add":[]}`,
		`{"add":[[1,2],[3,4]],"remove":[[5,6]]}`, `{"add":[[4294967295,0]]}`,
		`{"add":[[4294967296,0]]}`, `{"add":[[-1,2]]}`, `{"add":[["1","2"]]}`,
		`{"add":[[1,2]]} trailing`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/graphs/g/update", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code >= 500:
			t.Fatalf("body %q: status %d (%s)", body, code, rec.Body.Bytes())
		case code == http.StatusBadRequest || code == http.StatusRequestEntityTooLarge:
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("body %q: %d without an ErrorResponse: %q", body, code, rec.Body.Bytes())
			}
		case code == http.StatusOK:
			// decodeBody's json.Decoder ignores what follows the value.
			var ref struct{ Add, Remove [][]uint32 }
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ref); err != nil {
				t.Fatalf("body %q: 200 for a body that does not decode: %v", body, err)
			}
			for _, e := range append(ref.Add, ref.Remove...) {
				if len(e) != 2 {
					t.Fatalf("body %q: 200 for an edge of %d elements", body, len(e))
				}
			}
		}
	})
}
