package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// newTestServer builds a graph from spec and serves it under id on an
// httptest server. The returned Graph is the server's own handle, handy
// for in-process reference runs (sessions are isolated, so sharing it
// with the server is safe by the PR 4 contract).
func newTestServer(t *testing.T, cfg Config, id, spec string, opts repro.Options) (*Server, *httptest.Server, *repro.Graph) {
	t.Helper()
	g, err := repro.Build(repro.FromSpec(spec), opts)
	if err != nil {
		t.Fatalf("Build(%s): %v", spec, err)
	}
	s := New(cfg)
	if err := s.AddGraph(id, g, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, g
}

// postQuery posts a QueryRequest and returns the raw NDJSON data lines
// (emission lines only, concatenated bytes) plus the decoded trailer.
func postQuery(t *testing.T, url, id, tenant string, req QueryRequest) ([]byte, QueryTrailer, int) {
	t.Helper()
	body, trailer, status, err := tryQuery(url, id, tenant, req)
	if err != nil {
		t.Fatalf("query %s: %v", id, err)
	}
	return body, trailer, status
}

func tryQuery(url, id, tenant string, req QueryRequest) ([]byte, QueryTrailer, int, error) {
	var trailer QueryTrailer
	b, _ := json.Marshal(req)
	hreq, err := http.NewRequest("POST", url+"/v1/graphs/"+id+"/query", bytes.NewReader(b))
	if err != nil {
		return nil, trailer, 0, err
	}
	if tenant != "" {
		hreq.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, trailer, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, trailer, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return raw, trailer, resp.StatusCode, nil
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	// Last non-empty line is the trailer.
	var last []byte
	n := len(lines)
	for n > 0 && len(bytes.TrimSpace(lines[n-1])) == 0 {
		n--
	}
	if n == 0 {
		return nil, trailer, resp.StatusCode, fmt.Errorf("empty NDJSON response")
	}
	last = lines[n-1]
	if err := json.Unmarshal(last, &trailer); err != nil {
		return nil, trailer, resp.StatusCode, fmt.Errorf("bad trailer %q: %v", last, err)
	}
	data := raw[:len(raw)-len(last)]
	return data, trailer, resp.StatusCode, nil
}

// splitStream splits a raw NDJSON query response into its data bytes
// and its decoded trailer line.
func splitStream(t *testing.T, raw []byte) ([]byte, QueryTrailer) {
	t.Helper()
	trimmed := bytes.TrimRight(raw, "\n")
	nl := bytes.LastIndexByte(trimmed, '\n') + 1
	var trailer QueryTrailer
	if err := json.Unmarshal(trimmed[nl:], &trailer); err != nil {
		t.Fatalf("bad trailer %q: %v", trimmed[nl:], err)
	}
	return raw[:nl], trailer
}

// referenceStream runs the same query in-process and encodes its
// emission stream with the wire encoder.
func referenceStream(t *testing.T, g *repro.Graph, kind string, k int, pattern string, q repro.Query) ([]byte, repro.Result) {
	t.Helper()
	var buf []byte
	var res repro.Result
	var err error
	switch kind {
	case "triangles":
		res, err = g.TrianglesFunc(context.Background(), q, func(a, b, c uint32) {
			buf = AppendEmission(buf, []uint32{a, b, c})
		})
	case "cliques":
		res, err = g.CliquesFunc(context.Background(), k, q, func(vs []uint32) {
			buf = AppendEmission(buf, vs)
		})
	case "match":
		p, perr := repro.ParsePattern(pattern)
		if perr != nil {
			t.Fatal(perr)
		}
		res, err = g.MatchFunc(context.Background(), p, q, func(vs []uint32) {
			buf = AppendEmission(buf, vs)
		})
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatalf("in-process %s query: %v", kind, err)
	}
	return buf, res
}

// The wire contract: the streamed NDJSON data lines are byte-identical
// to the in-process callback query — same deterministic emission order,
// same encoding — at every Workers value, and the trailer carries
// exactly the in-process Result (minus the scheduling-dependent
// per-worker breakdown).
func TestWireByteIdentity(t *testing.T) {
	_, ts, g := newTestServer(t, Config{}, "g", "gnm:n=300,m=2400", repro.Options{Seed: 11})
	for _, kind := range []string{"triangles", "cliques", "match"} {
		req := QueryRequest{Kind: kind, Seed: 5}
		k, pattern := 0, ""
		switch kind {
		case "cliques":
			req.K, k = 4, 4
		case "match":
			req.Pattern, pattern = "path3", "path3"
		}
		want, wantRes := referenceStream(t, g, kind, k, pattern, repro.Query{Seed: 5})
		var first []byte
		for _, workers := range []int{1, 4} {
			req.Workers = workers
			data, trailer, status := postQuery(t, ts.URL, "g", "", req)
			if status != http.StatusOK {
				t.Fatalf("%s workers=%d: status %d", kind, workers, status)
			}
			if !bytes.Equal(data, want) {
				t.Errorf("%s workers=%d: streamed bytes differ from in-process stream (%d vs %d bytes)",
					kind, workers, len(data), len(want))
			}
			if trailer.Result != ToWireResult(wantRes) {
				t.Errorf("%s workers=%d: trailer result %+v != in-process %+v",
					kind, workers, trailer.Result, ToWireResult(wantRes))
			}
			if !trailer.Done || trailer.Cursor != "" {
				t.Errorf("%s workers=%d: exhaustive stream should be done with no cursor, got %+v", kind, workers, trailer)
			}
			if trailer.Delivered != wantRes.Matches {
				t.Errorf("%s workers=%d: delivered %d != matches %d", kind, workers, trailer.Delivered, wantRes.Matches)
			}
			if workers == 1 {
				first = data
			} else if !bytes.Equal(first, data) {
				t.Errorf("%s: stream bytes differ between workers=1 and workers=%d", kind, workers)
			}
		}
	}
}

// A cursor-resumed query emits exactly the uncursored stream's suffix:
// paging through with Limit and concatenating the pages reproduces the
// full stream byte for byte. The first graph is one color triple on the
// default machine, so its cursors all name unit 0; the second has four
// colors and a Lemma 1 vertex on M = 2^6, so its cursors start resumed
// pages at later units.
func TestCursorResumeEqualsSuffix(t *testing.T) {
	for _, in := range []struct {
		spec  string
		opts  repro.Options
		units bool
	}{
		{"gnm:n=200,m=1600", repro.Options{Seed: 3}, false},
		{"powerlaw:n=800,m=1000,beta=1.6", repro.Options{Seed: 2, MemoryWords: 1 << 6, BlockWords: 1 << 3}, true},
	} {
		t.Run(in.spec, func(t *testing.T) {
			testCursorResumeEqualsSuffix(t, in.spec, in.opts, in.units)
		})
	}
}

func testCursorResumeEqualsSuffix(t *testing.T, spec string, opts repro.Options, units bool) {
	_, ts, g := newTestServer(t, Config{}, "g", spec, opts)
	full, fullRes := referenceStream(t, g, "triangles", 0, "", repro.Query{Seed: 9})

	// One limited page, then one unlimited resume: page + suffix == full.
	page, trailer, _ := postQuery(t, ts.URL, "g", "", QueryRequest{Seed: 9, Limit: 7})
	if trailer.Delivered != 7 || trailer.Cursor == "" {
		t.Fatalf("limited page: delivered=%d cursor=%q", trailer.Delivered, trailer.Cursor)
	}
	suffix, st, _ := postQuery(t, ts.URL, "g", "", QueryRequest{Cursor: trailer.Cursor})
	if st.Cursor != "" || !st.Done {
		t.Fatalf("unlimited resume should exhaust the stream: %+v", st)
	}
	if got := append(append([]byte{}, page...), suffix...); !bytes.Equal(got, full) {
		t.Errorf("page+suffix (%d bytes) != full stream (%d bytes)", len(got), len(full))
	}
	if st.Delivered+7 != fullRes.Matches {
		t.Errorf("resume delivered %d, page 7, want total %d", st.Delivered, fullRes.Matches)
	}

	// Pagination loop: fixed-size pages until the cursor disappears.
	var paged []byte
	cur := ""
	pages, maxUnit := 0, 0
	for {
		req := QueryRequest{Seed: 9, Limit: 13}
		if cur != "" {
			req = QueryRequest{Cursor: cur, Limit: 13}
		}
		data, tr, _ := postQuery(t, ts.URL, "g", "", req)
		paged = append(paged, data...)
		pages++
		if tr.Cursor == "" {
			break
		}
		cur = tr.Cursor
		c, err := decodeCursor(cur)
		if err != nil {
			t.Fatal(err)
		}
		maxUnit = max(maxUnit, c.Unit)
		if pages > int(fullRes.Matches/13)+2 {
			t.Fatal("pagination did not terminate")
		}
	}
	if !bytes.Equal(paged, full) {
		t.Errorf("concatenated pages (%d bytes) != full stream (%d bytes)", len(paged), len(full))
	}
	if units != (maxUnit > 0) {
		t.Errorf("cursors name units up to %d; the input should name units > 0: %v", maxUnit, units)
	}
}

// A token minted before cursors named units carries no "u" or "b": it
// still resumes byte-identically, by replaying the stream from emission
// 0, on a graph whose cursors otherwise start at later units — and the
// cursor the resumed page mints carries the unit again.
func TestCursorWithoutUnitResumesByReplay(t *testing.T) {
	_, ts, g := newTestServer(t, Config{}, "g", "powerlaw:n=800,m=1000,beta=1.6",
		repro.Options{Seed: 2, MemoryWords: 1 << 6, BlockWords: 1 << 3})
	full, fullRes := referenceStream(t, g, "triangles", 0, "", repro.Query{Seed: 9})
	pos := fullRes.Matches / 2
	old := encodeCursor(cursor{Graph: "g", Kind: "triangles", Algorithm: "cacheaware", Seed: 9, Pos: pos})
	if b := mustPayload(t, old); bytes.Contains(b, []byte(`"u"`)) || bytes.Contains(b, []byte(`"b"`)) {
		t.Fatalf("a unit-less token carries unit fields: %s", b)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	want := bytes.Join(lines[pos:], nil)

	page, tr, status := postQuery(t, ts.URL, "g", "", QueryRequest{Cursor: old, Limit: 13})
	if status != http.StatusOK || tr.Cursor == "" || tr.Result.Matches != pos+13 {
		t.Fatalf("replayed page: status %d, trailer %+v", status, tr)
	}
	next, err := decodeCursor(tr.Cursor)
	if err != nil || next.Unit == 0 {
		t.Fatalf("the replayed page's cursor %+v (%v) names no unit > 0", next, err)
	}
	rest, _, _ := postQuery(t, ts.URL, "g", "", QueryRequest{Cursor: tr.Cursor})
	if got := append(page, rest...); !bytes.Equal(got, want) {
		t.Errorf("resumed from a unit-less token: %d bytes, want the %d-byte suffix", len(got), len(want))
	}
}

// mustPayload returns a token's decoded JSON payload.
func mustPayload(t *testing.T, tok string) []byte {
	t.Helper()
	b, err := base64.RawURLEncoding.DecodeString(tok[:strings.LastIndexByte(tok, '.')])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A cursor pins the generation its emission order belongs to: an
// intervening update invalidates it with 409 Conflict.
func TestCursorStaleAfterUpdate(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, "g", "gnm:n=100,m=800", repro.Options{Seed: 1})
	_, trailer, _ := postQuery(t, ts.URL, "g", "", QueryRequest{Limit: 3})
	if trailer.Cursor == "" {
		t.Fatal("expected a cursor from the limited query")
	}

	ub, _ := json.Marshal(UpdateRequest{Add: [][2]uint32{{1000, 1001}, {1001, 1002}, {1000, 1002}}})
	resp, err := http.Post(ts.URL+"/v1/graphs/g/update", "application/json", bytes.NewReader(ub))
	if err != nil {
		t.Fatal(err)
	}
	var ur UpdateResponse
	json.NewDecoder(resp.Body).Decode(&ur)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ur.Generation != 1 {
		t.Fatalf("update: status %d, resp %+v", resp.StatusCode, ur)
	}

	raw, _, status, err := tryQuery(ts.URL, "g", "", QueryRequest{Cursor: trailer.Cursor})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusConflict {
		t.Fatalf("stale cursor: want 409, got %d (%s)", status, raw)
	}

	// A fresh query runs on the new generation and can page again.
	_, tr2, _ := postQuery(t, ts.URL, "g", "", QueryRequest{Limit: 3})
	if tr2.Generation != 1 {
		t.Errorf("fresh query generation = %d, want 1", tr2.Generation)
	}
}

// Mismatched query parameters on a resume are rejected: a cursor is a
// position in one specific stream.
func TestCursorParameterMismatch(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, "g", "gnm:n=100,m=800", repro.Options{Seed: 1})
	_, trailer, _ := postQuery(t, ts.URL, "g", "", QueryRequest{Seed: 4, Limit: 3})
	for _, req := range []QueryRequest{
		{Cursor: trailer.Cursor, Seed: 5},
		{Cursor: trailer.Cursor, Kind: "cliques", K: 4},
		{Cursor: trailer.Cursor, Algorithm: "oblivious"},
	} {
		raw, _, status, err := tryQuery(ts.URL, "g", "", req)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusBadRequest {
			t.Errorf("mismatched resume %+v: want 400, got %d (%s)", req, status, raw)
		}
	}
	// Tampered token.
	tok := trailer.Cursor
	tampered := strings.Replace(tok, tok[:1], "A", 1)
	if tampered == tok {
		tampered = "B" + tok[1:]
	}
	raw, _, status, err := tryQuery(ts.URL, "g", "", QueryRequest{Cursor: tampered})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusBadRequest {
		t.Errorf("tampered cursor: want 400, got %d (%s)", status, raw)
	}
}

// gateWriter is a ResponseWriter that lets exactly one body write
// through and then blocks until released — holding the handler (and the
// admission slot it occupies) in flight deterministically, with no
// dependence on socket buffer sizes.
type gateWriter struct {
	header  http.Header
	buf     bytes.Buffer
	wrote   chan struct{} // closed after the first write lands
	release chan struct{} // close to let subsequent writes proceed
	writes  int
	once    sync.Once
}

func newGateWriter() *gateWriter {
	return &gateWriter{
		header:  http.Header{},
		wrote:   make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (w *gateWriter) Header() http.Header { return w.header }
func (w *gateWriter) WriteHeader(int)     {}
func (w *gateWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes > 1 {
		<-w.release
	}
	n, err := w.buf.Write(p)
	w.once.Do(func() { close(w.wrote) })
	return n, err
}

// Tenant budgets: with a one-session cap, a tenant whose stream is
// still draining is rejected with 429 on its next query while another
// tenant's queries are admitted and complete with correct results; once
// the stream drains, the first tenant is admitted again.
func TestTenantBudgetEnforced(t *testing.T) {
	cfg := Config{MaxTenantSessions: 1, FlushEvery: 1}
	srv, ts, g := newTestServer(t, cfg, "g", "clique:n=16", repro.Options{})
	want, wantRes := referenceStream(t, g, "triangles", 0, "", repro.Query{})

	// Tenant A's stream runs through the handler directly, against a
	// write gate: with FlushEvery 1 every emission is a ResponseWriter
	// write, so after the first line the producer is parked mid-stream
	// and the session provably held.
	gw := newGateWriter()
	qb, _ := json.Marshal(QueryRequest{})
	areq := httptest.NewRequest("POST", "/v1/graphs/g/query", bytes.NewReader(qb))
	areq.Header.Set("X-Tenant", "a")
	done := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(gw, areq)
		close(done)
	}()
	<-gw.wrote

	// Tenant A is now over its session budget.
	raw, _, status, err := tryQuery(ts.URL, "g", "a", QueryRequest{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("tenant a second query: want 429, got %d (%s)", status, raw)
	}

	// Tenant B is an independent budget: full stream, correct bytes.
	data, trailer, st := postQuery(t, ts.URL, "g", "b", QueryRequest{})
	if st != http.StatusOK || !bytes.Equal(data, want) || trailer.Result != ToWireResult(wantRes) {
		t.Fatalf("tenant b: status %d, %d bytes (want %d), result match %v",
			st, len(data), len(want), trailer.Result == ToWireResult(wantRes))
	}

	// Release the gate: tenant A's parked stream drains in full — and is
	// byte-identical despite having been stalled — then its budget frees
	// and it is admitted again.
	close(gw.release)
	<-done
	adata, atrailer := splitStream(t, gw.buf.Bytes())
	if !bytes.Equal(adata, want) || atrailer.Result != ToWireResult(wantRes) {
		t.Fatalf("tenant a drained stream: %d bytes (want %d), result match %v",
			len(adata), len(want), atrailer.Result == ToWireResult(wantRes))
	}
	if _, _, status, err = tryQuery(ts.URL, "g", "a", QueryRequest{Limit: 1}); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("tenant a not re-admitted after drain: status %d", status)
	}
}

// The M-word budget rejects a session that would exceed the tenant's
// total, independent of the session cap.
func TestTenantMemoryBudget(t *testing.T) {
	opts := repro.Options{MemoryWords: 1 << 14, BlockWords: 1 << 6}
	// Budget fits one session (2^14 words) but not two.
	cfg := Config{MaxTenantMemoryWords: 3 << 13, FlushEvery: 1}
	srv, ts, _ := newTestServer(t, cfg, "g", "clique:n=16", opts)

	// Park one stream mid-flight behind a write gate (see
	// TestTenantBudgetEnforced) so its 2^14-word session provably holds
	// the budget.
	gw := newGateWriter()
	qb, _ := json.Marshal(QueryRequest{})
	areq := httptest.NewRequest("POST", "/v1/graphs/g/query", bytes.NewReader(qb))
	areq.Header.Set("X-Tenant", "a")
	done := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(gw, areq)
		close(done)
	}()
	<-gw.wrote

	_, _, status, err := tryQuery(ts.URL, "g", "a", QueryRequest{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("over memory budget: want 429, got %d", status)
	}
	close(gw.release)
	<-done
}

// Graceful shutdown drains in-flight streams: Shutdown returns only
// after the active stream has delivered its full byte-identical body
// and trailer.
func TestShutdownDrainsStreams(t *testing.T) {
	g, err := repro.Build(repro.FromSpec("clique:n=64"), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{FlushEvery: 1})
	if err := s.AddGraph("g", g, ""); err != nil {
		t.Fatal(err)
	}
	want, _ := referenceStream(t, g, "triangles", 0, "", repro.Query{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()

	qb, _ := json.Marshal(QueryRequest{})
	resp, err := http.Post(url+"/v1/graphs/g/query", "application/json", bytes.NewReader(qb))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.Peek(1); err != nil {
		t.Fatal(err)
	}

	// Shutdown while the stream is mid-flight; it must wait for the
	// stream to finish.
	done := make(chan error, 1)
	var mu sync.Mutex
	shutdownReturned := false
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		mu.Lock()
		shutdownReturned = true
		mu.Unlock()
		done <- err
	}()

	raw, err := io.ReadAll(br)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("draining stream during shutdown: %v", err)
	}
	mu.Lock()
	sr := shutdownReturned
	mu.Unlock()
	_ = sr // Shutdown may or may not have returned yet; what matters is the stream completed intact.
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	lines := bytes.SplitAfter(raw, []byte("\n"))
	n := len(lines)
	for n > 0 && len(bytes.TrimSpace(lines[n-1])) == 0 {
		n--
	}
	var trailer QueryTrailer
	if err := json.Unmarshal(lines[n-1], &trailer); err != nil || !trailer.Done {
		t.Fatalf("stream cut short by shutdown: trailer %q err %v", lines[n-1], err)
	}
	if data := raw[:len(raw)-len(lines[n-1])]; !bytes.Equal(data, want) {
		t.Errorf("drained stream differs from reference (%d vs %d bytes)", len(data), len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// New queries against the closed registry fail cleanly.
	_, _, status, err := tryQuery(url, "g", "", QueryRequest{})
	if err == nil && status == http.StatusOK {
		t.Error("query after Close should not succeed")
	}
	ln.Close()
}

// The REST surface: list, info, load (build and open), update,
// checkpoint, unload, stats.
func TestRegistryLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	// Build a durable graph via the API.
	img := dir + "/g.img"
	lb, _ := json.Marshal(LoadRequest{ID: "d", Spec: "gnm:n=100,m=700", Path: img, Seed: 2})
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", bytes.NewReader(lb))
	if err != nil {
		t.Fatal(err)
	}
	var lr LoadResponse
	json.NewDecoder(resp.Body).Decode(&lr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || lr.Graph.ID != "d" || lr.Opened {
		t.Fatalf("load: status %d, %+v", resp.StatusCode, lr)
	}

	// Duplicate id is a conflict.
	resp, _ = http.Post(ts.URL+"/v1/graphs", "application/json",
		bytes.NewReader(lb))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate load: want 409, got %d", resp.StatusCode)
	}

	// Update, checkpoint, then unload (closes and promotes the image).
	ub, _ := json.Marshal(UpdateRequest{Add: [][2]uint32{{200, 201}, {201, 202}, {200, 202}}})
	resp, err = http.Post(ts.URL+"/v1/graphs/d/update", "application/json", bytes.NewReader(ub))
	if err != nil {
		t.Fatal(err)
	}
	var ur UpdateResponse
	json.NewDecoder(resp.Body).Decode(&ur)
	resp.Body.Close()
	if ur.Generation != 1 || ur.Added != 3 {
		t.Fatalf("update: %+v", ur)
	}
	resp, err = http.Post(ts.URL+"/v1/graphs/d/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr CheckpointResponse
	json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cr.Generation != 1 {
		t.Fatalf("checkpoint: status %d, %+v", resp.StatusCode, cr)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/graphs/d", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("unload: want 204, got %d", resp.StatusCode)
	}

	// Reopen the checkpointed image through the API: generation 1,
	// nothing to replay.
	ob, _ := json.Marshal(LoadRequest{ID: "d2", Path: img})
	resp, err = http.Post(ts.URL+"/v1/graphs", "application/json", bytes.NewReader(ob))
	if err != nil {
		t.Fatal(err)
	}
	lr = LoadResponse{}
	json.NewDecoder(resp.Body).Decode(&lr)
	resp.Body.Close()
	if !lr.Opened || lr.Graph.Generation != 1 || lr.Replayed != 0 {
		t.Fatalf("reopen: %+v", lr)
	}

	// List and stats.
	resp, err = http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var gl GraphList
	json.NewDecoder(resp.Body).Decode(&gl)
	resp.Body.Close()
	if len(gl.Graphs) != 1 || gl.Graphs[0].ID != "d2" {
		t.Fatalf("list: %+v", gl)
	}
	postQuery(t, ts.URL, "d2", "acme", QueryRequest{Limit: 2})
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr StatsResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	acme, ok := sr.Tenants["acme"]
	if !ok || acme.Queries != 1 || acme.Emissions != 2 || acme.ActiveSessions != 0 {
		t.Fatalf("stats for acme: %+v (ok=%v)", acme, ok)
	}
	if acme.BlockReads == 0 || acme.BytesStreamed == 0 {
		t.Errorf("stats should account IO and bytes: %+v", acme)
	}
}

// Sanity on the error surface: unknown graph, bad kind, bad body.
func TestQueryErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, "g", "gnm:n=50,m=200", repro.Options{})
	raw, _, status, err := tryQuery(ts.URL, "nope", "", QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusNotFound {
		t.Errorf("unknown graph: want 404, got %d (%s)", status, raw)
	}
	raw, _, status, err = tryQuery(ts.URL, "g", "", QueryRequest{Kind: "squares"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusBadRequest {
		t.Errorf("bad kind: want 400, got %d (%s)", status, raw)
	}
	resp, err := http.Post(ts.URL+"/v1/graphs/g/query", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: want 400, got %d", resp.StatusCode)
	}
}

// repeatReader yields its pattern endlessly.
type repeatReader struct {
	pat []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.pat[r.off:])
		n += c
		r.off = (r.off + c) % len(r.pat)
	}
	return n, nil
}

// TestOversizedBodyRejected: a request body past maxRequestBytes is
// answered 413 with an ErrorResponse, and the update it carried is not
// applied. The body is generated while it is sent, never held whole.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts, g := newTestServer(t, Config{}, "g", "gnm:n=50,m=200", repro.Options{})
	size := int64(maxRequestBytes + 1<<16)
	body := io.LimitReader(io.MultiReader(strings.NewReader(`{"add":[`), &repeatReader{pat: []byte("[1,2],")}), size)
	// A raw connection: the response is read while the server has stopped
	// reading the body, whatever the writer's fate.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		fmt.Fprintf(conn, "POST /v1/graphs/g/update HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", size)
		io.Copy(conn, body) // fails once the server hangs up
	}()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("oversized update: status %d, error %q; want 413 naming the cap", resp.StatusCode, e.Error)
	}
	if gen := g.Generation(); gen != 0 {
		t.Errorf("oversized update moved the graph to generation %d", gen)
	}
}
