package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/cluster"
)

// subStream is an open subscription stream: the live response body plus
// a line reader over it.
type subStream struct {
	resp *http.Response
	rd   *bufio.Reader
}

func openSubscription(t *testing.T, url, id, tenant string, req SubscribeRequest) (*subStream, int) {
	t.Helper()
	b, _ := json.Marshal(req)
	hreq, err := http.NewRequest("POST", url+"/v1/graphs/"+id+"/subscriptions", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		hreq.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var e ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		t.Logf("subscription not opened: %d %s", resp.StatusCode, e.Error)
		return nil, resp.StatusCode
	}
	return &subStream{resp: resp, rd: bufio.NewReader(resp.Body)}, resp.StatusCode
}

// line blocks until the next NDJSON line arrives on the stream.
func (s *subStream) line(t *testing.T) []byte {
	t.Helper()
	ln, err := s.rd.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading subscription stream: %v (got %q)", err, ln)
	}
	return ln
}

func (s *subStream) close() { s.resp.Body.Close() }

func postUpdate(t *testing.T, url, id string, req UpdateRequest) UpdateResponse {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/graphs/"+id+"/update", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ur UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d, decode err %v", resp.StatusCode, err)
	}
	return ur
}

// TestSubscriptionStreamByteIdentity is the wire half of the standing-
// query determinism contract: every change line on the NDJSON stream is
// byte-identical to ToWireChange of the ChangeSet a parallel in-process
// subscription of the same family receives — at a different worker
// count, which must not show on the wire.
func TestSubscriptionStreamByteIdentity(t *testing.T) {
	opts := repro.Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	_, ts, g := newTestServer(t, Config{}, "g", "gnm:n=120,m=600", opts)

	kinds := []struct {
		name string
		req  SubscribeRequest
		sub  func() (*repro.Subscription, error)
	}{
		{"triangles", SubscribeRequest{Workers: 4},
			func() (*repro.Subscription, error) { return g.Subscribe(nil, repro.Query{Workers: 1}) }},
		{"cliques", SubscribeRequest{Kind: "cliques", K: 4, Workers: 4},
			func() (*repro.Subscription, error) { return g.SubscribeCliques(nil, 4, repro.Query{Workers: 1}) }},
		{"match", SubscribeRequest{Kind: "match", Pattern: "diamond", Workers: 4},
			func() (*repro.Subscription, error) {
				return g.SubscribeMatch(nil, repro.PatternDiamond, repro.Query{Workers: 1})
			}},
	}

	type open struct {
		stream *subStream
		ref    *repro.Subscription
	}
	opened := make([]open, len(kinds))
	startGen := g.Generation()
	for i, k := range kinds {
		stream, status := openSubscription(t, ts.URL, "g", "", k.req)
		if status != http.StatusOK {
			t.Fatalf("%s: subscription refused with %d", k.name, status)
		}
		defer stream.close()
		var hello WireSubscribed
		if err := json.Unmarshal(stream.line(t), &hello); err != nil {
			t.Fatalf("%s: bad hello line: %v", k.name, err)
		}
		if !hello.Subscribed || hello.Generation != startGen {
			t.Fatalf("%s: hello %+v, want subscribed at generation %d", k.name, hello, startGen)
		}
		ref, err := k.sub()
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		opened[i] = open{stream, ref}
	}

	updates := []UpdateRequest{
		{Add: [][2]uint32{{700, 701}, {701, 702}, {700, 702}, {700, 703}, {701, 703}, {702, 703}}},
		{Remove: [][2]uint32{{700, 703}}},
		{Add: [][2]uint32{{0, 700}}, Remove: [][2]uint32{{700, 701}}},
	}
	for ui, u := range updates {
		ur := postUpdate(t, ts.URL, "g", u)
		if ur.Generation != startGen+uint64(ui)+1 {
			t.Fatalf("update %d installed generation %d", ui, ur.Generation)
		}
		for i, k := range kinds {
			cs, ok := <-opened[i].ref.Changes()
			if !ok {
				t.Fatalf("%s: reference subscription ended early", k.name)
			}
			want, _ := json.Marshal(ToWireChange(cs))
			want = append(want, '\n')
			got := opened[i].stream.line(t)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: update %d: wire line differs from in-process ChangeSet:\n got %s\nwant %s", k.name, ui, got, want)
			}
			if cs.Generation != ur.Generation {
				t.Fatalf("%s: update %d delivered generation %d, want %d", k.name, ui, cs.Generation, ur.Generation)
			}
		}
	}
}

// TestSubscribeResumeHandshake pins the reconnect contract: matching
// AfterGeneration opens the stream; a stale one answers 409 before any
// stream bytes; generation numbers let the client resume exactly.
func TestSubscribeResumeHandshake(t *testing.T) {
	opts := repro.Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	_, ts, _ := newTestServer(t, Config{}, "g", "gnm:n=60,m=240", opts)

	gen0 := uint64(0)
	stream, status := openSubscription(t, ts.URL, "g", "", SubscribeRequest{AfterGeneration: &gen0})
	if status != http.StatusOK {
		t.Fatalf("matching after_generation refused with %d", status)
	}
	var hello WireSubscribed
	if err := json.Unmarshal(stream.line(t), &hello); err != nil || hello.Generation != 0 {
		t.Fatalf("hello %+v, err %v", hello, err)
	}

	ur := postUpdate(t, ts.URL, "g", UpdateRequest{Add: [][2]uint32{{500, 501}, {501, 502}, {500, 502}}})
	var change WireChange
	if err := json.Unmarshal(stream.line(t), &change); err != nil {
		t.Fatal(err)
	}
	if change.Generation != ur.Generation || len(change.Added) == 0 {
		t.Fatalf("change %+v, want added triangles at generation %d", change, ur.Generation)
	}
	stream.close()

	// The graph moved to generation 1; a client that only integrated 0
	// cannot resume — its gap was never retained.
	if _, status := openSubscription(t, ts.URL, "g", "", SubscribeRequest{AfterGeneration: &gen0}); status != http.StatusConflict {
		t.Fatalf("stale after_generation answered %d, want 409", status)
	}
	// One that integrated generation 1 resumes exactly.
	stream2, status := openSubscription(t, ts.URL, "g", "", SubscribeRequest{AfterGeneration: &ur.Generation})
	if status != http.StatusOK {
		t.Fatalf("current after_generation refused with %d", status)
	}
	defer stream2.close()
	if err := json.Unmarshal(stream2.line(t), &hello); err != nil || hello.Generation != ur.Generation {
		t.Fatalf("resumed hello %+v, err %v", hello, err)
	}
}

// TestSubscribeValidation covers the endpoint's own 4xx surface: an
// unknown graph. Its family validation is TestQueryFamilyValidation's.
func TestSubscribeValidation(t *testing.T) {
	opts := repro.Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	_, ts, _ := newTestServer(t, Config{}, "g", "gnm:n=60,m=240", opts)
	resp, err := http.Post(ts.URL+"/v1/graphs/nope/subscriptions", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown graph: status %d, want %d", resp.StatusCode, http.StatusNotFound)
	}
}

// TestQueryFamilyValidation posts one table of malformed requests and
// invalid query families to the four endpoints that resolve a family —
// graph query, subscription, shard query and coordinator query — and
// expects 400 from each. A subscription has no algorithm field, so the
// algorithm cases skip it.
// familyValidationCases are query bodies every query-shaped endpoint
// must answer 400 with an ErrorResponse; algorithm marks the ones that
// name a triangle algorithm, which subscriptions do not take.
var familyValidationCases = []struct {
	name, body string
	algorithm  bool
}{
	{"bad json", `{`, false},
	{"bad kind", `{"kind":"rings"}`, false},
	{"cliques without k", `{"kind":"cliques"}`, false},
	{"cliques k too small", `{"kind":"cliques","k":2}`, false},
	{"match without pattern", `{"kind":"match"}`, false},
	{"match unknown pattern", `{"kind":"match","pattern":"heptagon"}`, false},
	{"triangles with k", `{"k":3}`, false},
	{"match with k", `{"kind":"match","pattern":"diamond","k":4}`, false},
	{"unknown algorithm", `{"algorithm":"quantum"}`, true},
	{"cliques with algorithm", `{"kind":"cliques","k":4,"algorithm":"cacheaware"}`, true},
}

func TestQueryFamilyValidation(t *testing.T) {
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
	coord := New(Config{})
	t.Cleanup(func() { coord.Close() })
	if err := coord.ServeCoordinator(cl); err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)

	endpoints := []string{
		shardTS.URL + "/v1/graphs/g/query",
		shardTS.URL + "/v1/graphs/g/subscriptions",
		shardTS.URL + "/v1/cluster/shard/query",
		coordTS.URL + "/v1/cluster/query",
	}
	for _, c := range familyValidationCases {
		for _, url := range endpoints {
			if c.algorithm && strings.HasSuffix(url, "/subscriptions") {
				continue
			}
			resp, err := http.Post(url, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var e ErrorResponse
			json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
				t.Errorf("%s at %s: status %d (error %q), want 400 with an error", c.name, url, resp.StatusCode, e.Error)
			}
		}
	}
}

// TestSubscriptionEndsOnUnload: unloading the graph closes its handle,
// which ends the stream with an orderly WireSubEnd naming the last
// delivered generation — the client's exact resume point.
func TestSubscriptionEndsOnUnload(t *testing.T) {
	opts := repro.Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	_, ts, _ := newTestServer(t, Config{}, "g", "gnm:n=60,m=240", opts)

	stream, status := openSubscription(t, ts.URL, "g", "", SubscribeRequest{})
	if status != http.StatusOK {
		t.Fatalf("subscription refused with %d", status)
	}
	defer stream.close()
	stream.line(t) // hello

	ur := postUpdate(t, ts.URL, "g", UpdateRequest{Add: [][2]uint32{{500, 501}, {501, 502}, {500, 502}}})
	var change WireChange
	if err := json.Unmarshal(stream.line(t), &change); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/graphs/g", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("unload answered %d", resp.StatusCode)
	}

	var end WireSubEnd
	if err := json.Unmarshal(stream.line(t), &end); err != nil {
		t.Fatal(err)
	}
	if !end.Done || end.Generation != ur.Generation || end.Delivered != 1 {
		t.Fatalf("end line %+v, want done at generation %d with 1 delivered", end, ur.Generation)
	}
	if !strings.Contains(end.Error, "closed") {
		t.Fatalf("end line error %q does not name the close", end.Error)
	}
}

// TestSubscriptionChargesBudget: a live stream holds one session of the
// tenant's budget for its whole lifetime, so a budget of one rejects a
// second subscription with 429 until the first disconnects.
func TestSubscriptionChargesBudget(t *testing.T) {
	opts := repro.Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	_, ts, _ := newTestServer(t, Config{MaxTenantSessions: 1}, "g", "gnm:n=60,m=240", opts)

	stream, status := openSubscription(t, ts.URL, "g", "tight", SubscribeRequest{})
	if status != http.StatusOK {
		t.Fatalf("first subscription refused with %d", status)
	}
	stream.line(t) // hello: the session is held now
	if _, status := openSubscription(t, ts.URL, "g", "tight", SubscribeRequest{}); status != http.StatusTooManyRequests {
		t.Fatalf("second subscription answered %d, want 429", status)
	}
	// A different tenant is unaffected.
	other, status := openSubscription(t, ts.URL, "g", "roomy", SubscribeRequest{})
	if status != http.StatusOK {
		t.Fatalf("other tenant refused with %d", status)
	}
	other.close()
	stream.close()
}

// TestToWireChangeNeverNull pins the JSON shape: empty change lists
// encode as [], not null.
func TestToWireChangeNeverNull(t *testing.T) {
	b, err := json.Marshal(ToWireChange(repro.ChangeSet{Generation: 3}))
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if strings.Contains(s, "null") {
		t.Fatalf("wire change encodes null: %s", s)
	}
	for _, want := range []string{`"added":[]`, `"removed":[]`} {
		if !strings.Contains(s, want) {
			t.Fatalf("wire change %s missing %s", s, want)
		}
	}
}
