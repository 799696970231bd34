package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// wireWorkload is wire: one client pages native triangle streams of one
// disk-backed graph through an in-process serve.Server and runs gathered
// triangle queries through a coordinator over a 2-shard partition of a
// second graph. Every server listens on loopback.
type wireWorkload struct {
	e            *env
	streamEdges  [][2]uint32
	streamTris   [][3]uint32
	clusterEdges [][2]uint32
	aSeeds       []uint64 // stream seeds
	bSeeds       []uint64 // gather seeds
	plan         []wireOp // op order

	// References recorded in process before the set-ups: the unpaged
	// native stream of each stream seed, and the single-process Ordered
	// stream of the partitioned graph, as NDJSON emission-line bytes.
	unpaged   map[uint64]streamDigest
	gatherRef streamDigest
}

type streamDigest struct {
	hash seqHash
	n    uint64
}

// wireWorkers is the Workers of every wire graph and query.
const wireWorkers = 1

// wireOp is one operation of wire's plan: a paged stream or a gathered
// query, and its index among the plan's operations of that kind.
type wireOp struct {
	stream bool
	ord    int
}

// blockGathers is the number of gathered queries per paged stream in
// wire's plan.
const blockGathers = 5

// wirePlan is wire's op order: 20 blocks of one paged stream and
// blockGathers gathered queries, each block shuffled. A single client
// runs it, so a stream and a gather never compete for the cores, and the
// blocks keep the mix the same in every prefix a time-bounded run gets
// through: the pooled median is a gather and the p90 a stream on every
// seed. The plan holds 20 streams and 100 gathers, multiples of the 4
// stream and 10 gather seeds, so cycling through it cycles through the
// seeds.
func wirePlan(r *rand.Rand) []wireOp {
	plan := make([]wireOp, 0, 20*(1+blockGathers))
	streams, gathers := 0, 0
	for b := 0; b < 20; b++ {
		block := make([]bool, 1+blockGathers)
		block[0] = true
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, s := range block {
			if s {
				plan = append(plan, wireOp{stream: true, ord: streams})
				streams++
			} else {
				plan = append(plan, wireOp{ord: gathers})
				gathers++
			}
		}
	}
	return plan
}

// coverOps is the number of operations past the warm-ups the plan takes
// to run every stream and every gather seed once.
func (w *wireWorkload) coverOps() int {
	seen := map[uint64]bool{}
	n := 0
	for i := warmupOps; len(seen) < len(w.aSeeds)+len(w.bSeeds); i++ {
		o := w.plan[i%len(w.plan)]
		if o.stream {
			seen[w.aSeeds[o.ord%len(w.aSeeds)]] = true
		} else {
			seen[w.bSeeds[o.ord%len(w.bSeeds)]] = true
		}
		n++
	}
	return n
}

func newWireWorkload(e *env) (*wireWorkload, error) {
	w := &wireWorkload{e: e, unpaged: map[uint64]streamDigest{}}
	var err error
	if w.streamEdges, err = repro.Generate(e.p.graph, e.seed); err != nil {
		return nil, err
	}
	if w.clusterEdges, err = repro.Generate(e.p.clusterGraph, e.seed+1); err != nil {
		return nil, err
	}
	w.streamTris = refTriangles(w.streamEdges)
	r := e.rng(1)
	w.aSeeds, w.bSeeds = querySeeds(r, 4), querySeeds(r, 10)
	w.plan = wirePlan(r)

	opts := repro.Options{MemoryWords: memWords, BlockWords: blockWords, Workers: wireWorkers}
	sg, err := repro.Build(repro.FromEdges(w.streamEdges), opts)
	if err != nil {
		return nil, err
	}
	defer sg.Close()
	ref := digestTriangles(w.streamTris)
	for _, seed := range w.aSeeds {
		d, set := streamDigest{hash: fnvOffset}, tupleSet{}
		var line []byte
		_, err := sg.TrianglesFunc(nil, repro.Query{Seed: seed, Workers: wireWorkers, Mode: repro.ModeNative}, func(a, b, c uint32) {
			line = serve.AppendEmission(line[:0], []uint32{a, b, c})
			d.hash.bytes(line)
			d.n++
			set.add(a, b, c)
		})
		if err != nil {
			return nil, err
		}
		if set != ref.set {
			return nil, mismatchf("unpaged stream with seed %d: %v, reference %v", seed, set, ref.set)
		}
		w.unpaged[seed] = d
	}

	cg, err := repro.Build(repro.FromEdges(w.clusterEdges), opts)
	if err != nil {
		return nil, err
	}
	defer cg.Close()
	w.gatherRef.hash = fnvOffset
	refSeq := fnvOffset
	var line []byte
	if _, err := cg.TrianglesFunc(nil, repro.Query{Seed: w.bSeeds[0], Workers: wireWorkers, Ordered: true}, func(a, b, c uint32) {
		line = serve.AppendEmission(line[:0], []uint32{a, b, c})
		w.gatherRef.hash.bytes(line)
		w.gatherRef.n++
		refSeq.words(a, b, c)
	}); err != nil {
		return nil, err
	}
	if want := digestTriangles(refTriangles(w.clusterEdges)); refSeq != want.seq || w.gatherRef.n != want.set.n {
		return nil, mismatchf("single-process ordered stream of the cluster graph differs from the reference")
	}
	return w, nil
}

type wireInst struct {
	w         *wireWorkload
	hc        *http.Client
	servers   []*httptest.Server // coordinator first, then shards, then the stream server
	owners    []*serve.Server    // in the same order
	streamURL string
	coordURL  string

	streamCanon, clusterCanon, adopt uint64

	mu        sync.Mutex
	gatherIOs map[uint64]uint64 // per gather seed: CanonIOs + Stats I/Os
	builds    []float64         // per gather: sub-builds across shards
	canonIOs  []float64         // per gather: the shards' sub-build CanonIOs
}

func (w *wireWorkload) open(rep int) (instance, error) {
	dir, err := w.e.setupDir(rep)
	if err != nil {
		return nil, err
	}
	tr := w.e.tr
	in := &wireInst{w: w, gatherIOs: map[uint64]uint64{}, hc: &http.Client{Transport: &http.Transport{}}}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	listen := func(srv *serve.Server, name string) *httptest.Server {
		ts := httptest.NewServer(tracedHandler(tr, name, srv.Handler()))
		in.servers = append([]*httptest.Server{ts}, in.servers...)
		in.owners = append([]*serve.Server{srv}, in.owners...)
		return ts
	}
	opts := repro.Options{MemoryWords: memWords, BlockWords: blockWords, Workers: wireWorkers}

	streamOpts := opts
	streamOpts.DiskPath = filepath.Join(dir, "stream.img")
	sg, err := repro.Build(repro.FromEdges(w.streamEdges), streamOpts)
	if err != nil {
		return nil, err
	}
	in.streamCanon = sg.CanonIOs()
	srv := serve.New(serve.Config{})
	if err := srv.AddGraph("stream", sg, streamOpts.DiskPath); err != nil {
		sg.Close()
		return nil, err
	}
	in.streamURL = listen(srv, "serve.query").URL

	clusterOpts := opts
	clusterOpts.DiskPath = filepath.Join(dir, "cluster.img")
	cg, err := repro.Build(repro.FromEdges(w.clusterEdges), clusterOpts)
	if err != nil {
		return nil, err
	}
	in.clusterCanon = cg.CanonIOs()
	pr, err := repro.Partition(nil, cg, repro.PartitionOptions{Dir: filepath.Join(dir, "cluster"), Shards: 2, Colors: 4, Seed: 1})
	if cerr := cg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	man, err := cluster.Load(pr.ManifestPath)
	if err != nil {
		return nil, err
	}
	var urls []string
	for i, sh := range pr.Shards {
		g, or, err := repro.Open(sh.Image, opts)
		if err != nil {
			return nil, err
		}
		in.adopt += or.AdoptIOs
		srv := serve.New(serve.Config{})
		if err := srv.ServeShard(man, i, g); err != nil {
			g.Close()
			return nil, err
		}
		urls = append(urls, listen(srv, "cluster.shard_query").URL)
	}
	var rt http.RoundTripper = &http.Transport{}
	if tr != nil {
		rt = &tracedTransport{tr: tr, base: rt}
	}
	cl, err := repro.DialCluster(nil, pr.ManifestPath, urls, repro.DialOptions{Client: &http.Client{Transport: rt}})
	if err != nil {
		return nil, err
	}
	csrv := serve.New(serve.Config{})
	if err := csrv.ServeCoordinator(cl); err != nil {
		cl.Close()
		return nil, err
	}
	in.coordURL = listen(csrv, "cluster.coordinator_query").URL
	ok = true
	return in, nil
}

func (in *wireInst) setupIOs() uint64 { return in.streamCanon + in.clusterCanon + in.adopt }

func (in *wireInst) close() error {
	var err error
	for i, ts := range in.servers {
		ts.Close()
		err = errors.Join(err, in.owners[i].Close())
	}
	in.hc.CloseIdleConnections()
	return err
}

func (in *wireInst) clients() []client {
	return []client{{op: in.op, minOps: in.w.coverOps()}}
}

func (in *wireInst) op(i int) (string, error) {
	w := in.w
	o := w.plan[i%len(w.plan)]
	if o.stream {
		return in.stream(w.aSeeds[o.ord%len(w.aSeeds)])
	}
	return in.gather(w.bSeeds[o.ord%len(w.bSeeds)])
}

// stream is one paged native stream, resumed by cursor to its end, which
// must equal the unpaged stream of its seed.
func (in *wireInst) stream(seed uint64) (string, error) {
	w := in.w
	ps, err := pagedStream(w.e.tr, in.hc, in.streamURL, "stream", seed, w.e.p.pageLimit)
	if err != nil {
		return "stream", err
	}
	if want := w.unpaged[seed]; ps.hash != want.hash || ps.n != want.n {
		return "stream", mismatchf("paged stream with seed %d: %d emissions in %d pages differ from the unpaged stream of %d", seed, ps.n, ps.pages, want.n)
	}
	return "stream", nil
}

// gather is one gathered triangle query, which must equal the
// single-process Ordered stream.
func (in *wireInst) gather(seed uint64) (string, error) {
	w := in.w
	root := w.e.tr.begin(nil, "wire", "wire.gather")
	body, err := json.Marshal(cluster.CoordinatorQueryRequest{Kind: "triangles", Seed: seed, Workers: wireWorkers})
	if err != nil {
		return "gather", err
	}
	t0 := time.Now()
	resp, err := post(in.hc, in.coordURL+"/v1/cluster/query", body, root)
	if err != nil {
		return "gather", err
	}
	ttfb := time.Since(t0)
	d := streamDigest{hash: fnvOffset}
	trailer, nbytes, err := readStream(resp.Body, &d)
	resp.Body.Close()
	if err != nil {
		return "gather", err
	}
	var t cluster.CoordinatorTrailer
	if err := json.Unmarshal(trailer, &t); err != nil {
		return "gather", fmt.Errorf("bad trailer %q: %v", trailer, err)
	}
	if !t.Done || t.Error != "" {
		return "gather", fmt.Errorf("gathered query failed: %s", t.Error)
	}
	ios := t.CanonIOs + t.Stats.BlockReads + t.Stats.BlockWrites
	root.end(func(x *span) { x.TTFBNs, x.Units, x.Words, x.IOs = int64(ttfb), d.n, nbytes, ios })
	if d != w.gatherRef || t.Matches != d.n {
		return "gather", mismatchf("gathered stream with seed %d: %d emissions (trailer says %d), want the single-process ordered stream of %d", seed, d.n, t.Matches, w.gatherRef.n)
	}
	builds := 0
	for _, s := range t.Shards {
		builds += s.Builds
	}
	in.mu.Lock()
	in.builds = append(in.builds, float64(builds))
	in.canonIOs = append(in.canonIOs, float64(t.CanonIOs))
	in.mu.Unlock()
	return "gather", checkIOs(&in.mu, in.gatherIOs, seed, ios, "gathered query")
}

func (in *wireInst) finish(samples []sample, r *report) {
	r.addExtra(timing("stream", latencies(samples, "stream"))...)
	r.addExtra(timing("gather", latencies(samples, "gather"))...)
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.gatherIOs) != len(in.w.bSeeds) {
		r.problem("only %d of %d gather seeds ran", len(in.gatherIOs), len(in.w.bSeeds))
	}
	r.addExtra(metric{name: "gather_ios", value: meanIOs(in.gatherIOs), unit: "IOs", n: len(in.gatherIOs)})
}

func (in *wireInst) traced(dur time.Duration, r *report) (tracedResult, error) {
	w, e := in.w, in.w.e
	tr := e.tr
	res := tracedResult{edges: w.streamEdges, tris: w.streamTris}
	im, err := replayBuild(tr, w.streamEdges, wireWorkers, filepath.Join(e.dir, "replay-stream.img"))
	if err != nil {
		return res, err
	}
	defer im.close()
	res.gap(im.canonIOs, in.streamCanon)
	cim, err := replayBuild(tr, w.clusterEdges, wireWorkers, filepath.Join(e.dir, "replay-cluster.img"))
	if err != nil {
		return res, err
	}
	res.gap(cim.canonIOs, in.clusterCanon)
	cim.close()

	in.mu.Lock()
	in.builds, in.canonIOs = nil, nil
	in.mu.Unlock()
	if res.lr, err = runClients(in.clients(), dur); err != nil {
		return res, err
	}

	// The stream server's work per page, replayed for the trienum and
	// extmem layers: one native query per stream seed.
	want := digestTriangles(w.streamTris).set
	for _, seed := range w.aSeeds {
		root := tr.begin(nil, "repro", "repro.query")
		var set tupleSet
		_, err := replayQuery{kind: kindTriangles, seed: seed, workers: wireWorkers, native: true}.replay(tr, root, im, func(vs []uint32) { set.add(vs...) })
		root.end(nil)
		if err != nil {
			return res, err
		}
		if set != want {
			return res, mismatchf("replayed stream query with seed %d: %v, want %v", seed, set, want)
		}
	}
	in.clusterMetrics(indexSpans(tr.snapshot()), r)
	return res, res.layerProbes(e, probeSpec{im: im, imEdges: w.streamEdges, kclique: true, diff: true, seed: w.aSeeds[0]})
}

// clusterMetrics are the gather's breakdown: per coordinator request,
// its shard round trips (slowest, fastest, time to first byte) and the
// time the coordinator spent beyond the slowest shard, which is its
// k-way merge and re-encoding.
func (in *wireInst) clusterMetrics(ix *spanIndex, r *report) {
	var hi, lo, merge, ttfb []float64
	for _, c := range ix.spans("cluster.coordinator_query", "") {
		var slow, fast time.Duration
		for i, rt := range ix.children[c.ID] {
			d := rt.dur()
			if i == 0 || d > slow {
				slow = d
			}
			if i == 0 || d < fast {
				fast = d
			}
			ttfb = append(ttfb, float64(rt.TTFBNs)/1e6)
		}
		hi = append(hi, float64(slow)/1e6)
		lo = append(lo, float64(fast)/1e6)
		merge = append(merge, float64(c.dur()-slow)/1e6)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r.addExtra(
		metric{name: "cluster.shard_ms.max", value: mean(hi), unit: "ms", n: len(hi)},
		metric{name: "cluster.shard_ms.min", value: mean(lo), unit: "ms", n: len(lo)},
		metric{name: "cluster.shard_ttfb_ms", value: mean(ttfb), unit: "ms", n: len(ttfb)},
		metric{name: "cluster.merge_ms", value: mean(merge), unit: "ms", n: len(merge)},
		metric{name: "cluster.builds", value: mean(in.builds), unit: "count", n: len(in.builds)},
		metric{name: "cluster.canon_ios", value: mean(in.canonIOs), unit: "IOs", n: len(in.canonIOs)})
}

// pagedResult is a paged stream as the client saw it.
type pagedResult struct {
	hash  seqHash // of the concatenated emission lines
	n     uint64
	pages int
}

// pagedStream runs one native triangle query of graph id through the
// serve layer, limit emissions per page, resuming with each page's
// cursor until a page ends without one.
func pagedStream(tr *tracer, hc *http.Client, base, id string, seed, limit uint64) (pagedResult, error) {
	res := pagedResult{hash: fnvOffset}
	root := tr.begin(nil, "wire", "wire.stream")
	defer root.end(func(x *span) { x.Units = res.n })
	req := serve.QueryRequest{Seed: seed, Workers: wireWorkers, Native: true, Limit: limit}
	for {
		name := "wire.page"
		if res.pages > 0 {
			name = "wire.resume"
		}
		ps := tr.begin(root, "wire", name)
		body, err := json.Marshal(req)
		if err != nil {
			return res, err
		}
		t0 := time.Now()
		resp, err := post(hc, base+"/v1/graphs/"+id+"/query", body, ps)
		if err != nil {
			return res, err
		}
		ttfb := time.Since(t0)
		d := streamDigest{hash: res.hash}
		trailer, nbytes, err := readStream(resp.Body, &d)
		resp.Body.Close()
		if err != nil {
			return res, err
		}
		ps.end(func(x *span) { x.TTFBNs, x.Units, x.Words = int64(ttfb), d.n, nbytes })
		res.hash = d.hash
		res.n += d.n
		res.pages++
		var t serve.QueryTrailer
		if err := json.Unmarshal(trailer, &t); err != nil {
			return res, fmt.Errorf("bad trailer %q: %v", trailer, err)
		}
		if !t.Done || t.Error != "" {
			return res, fmt.Errorf("stream page %d failed: %s", res.pages, t.Error)
		}
		if t.Delivered != d.n {
			return res, mismatchf("page %d: %d emission lines, trailer says %d", res.pages, d.n, t.Delivered)
		}
		if t.Cursor == "" {
			return res, nil
		}
		req = serve.QueryRequest{Workers: wireWorkers, Limit: limit, Cursor: t.Cursor}
	}
}

// post sends a JSON request, tagged with the span that issued it, and
// returns the response once its status is known to be 200.
func post(hc *http.Client, url string, body []byte, s *active) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if s != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d:%d", s.Trace, s.ID))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return resp, nil
}

// readStream consumes an NDJSON stream: emission lines are digested as
// raw bytes into d, and the last line, the trailer, is returned with the
// total body bytes.
func readStream(r io.Reader, d *streamDigest) (trailer []byte, nbytes uint64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		nbytes += uint64(len(line))
		if len(line) > 0 && bytes.HasPrefix(line, []byte(`{"v":`)) {
			d.hash.bytes(line)
			d.n++
		} else if len(bytes.TrimSpace(line)) > 0 {
			trailer = append(trailer[:0], line...)
		}
		if err == io.EOF {
			if trailer == nil {
				return nil, nbytes, errors.New("stream ended without a trailer")
			}
			return trailer, nbytes, nil
		}
		if err != nil {
			return nil, nbytes, err
		}
	}
}

// spanHeader carries "trace:span" of the span that issued a request, so
// the server-side span of a traced run links to it.
const spanHeader = "X-Bench-Span"

type spanKey struct{}

// tracedHandler records a span around every request next serves while
// the tracer is on, with the time to the first response byte, and hands
// the span to the handler through the request context (the coordinator's
// shard round trips hang off it).
func tracedHandler(tr *tracer, name string, next http.Handler) http.Handler {
	if tr == nil {
		return next
	}
	layer, _, _ := strings.Cut(name, ".")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var trace, parent uint64
		if v := r.Header.Get(spanHeader); v != "" {
			a, b, _ := strings.Cut(v, ":")
			trace, _ = strconv.ParseUint(a, 10, 64)
			parent, _ = strconv.ParseUint(b, 10, 64)
		}
		s := tr.beginUnder(trace, parent, layer, name)
		if s == nil {
			next.ServeHTTP(w, r)
			return
		}
		tw := &timedWriter{ResponseWriter: w, t0: time.Now()}
		next.ServeHTTP(tw, r.WithContext(context.WithValue(r.Context(), spanKey{}, s)))
		s.end(func(x *span) { x.TTFBNs, x.Words = int64(tw.first), uint64(tw.bytes) })
	})
}

// timedWriter notes when a response's first byte goes out. It keeps the
// Flush the serve layer streams through.
type timedWriter struct {
	http.ResponseWriter
	t0    time.Time
	first time.Duration
	bytes int
}

func (w *timedWriter) mark() {
	if w.first == 0 {
		w.first = time.Since(w.t0)
	}
}

func (w *timedWriter) WriteHeader(code int) {
	w.mark()
	w.ResponseWriter.WriteHeader(code)
}

func (w *timedWriter) Write(b []byte) (int, error) {
	w.mark()
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

func (w *timedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tracedTransport is the coordinator's HTTP transport in a traced run: a
// span per shard round trip, from the request to the end of the
// response body, under the coordinator request that caused it.
type tracedTransport struct {
	tr   *tracer
	base http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(*active)
	s := t.tr.begin(parent, "cluster", "cluster.roundtrip")
	if parent == nil || s == nil {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d:%d", s.Trace, s.ID))
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.end(nil)
		return nil, err
	}
	ttfb := time.Since(t0)
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int) {
		s.end(func(x *span) { x.TTFBNs, x.Words = int64(ttfb), uint64(n) })
	}}
	return resp, nil
}

func (t *tracedTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// timedBody calls done once, at the body's end or close.
type timedBody struct {
	io.ReadCloser
	n    int
	once sync.Once
	done func(n int)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}
