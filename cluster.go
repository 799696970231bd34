package repro

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/cluster"
)

// ErrClusterClosed is returned by operations on a closed Cluster handle.
var ErrClusterClosed = errors.New("repro: cluster handle is closed")

// DialOptions configures DialCluster. The zero value uses
// http.DefaultClient-like settings and no authentication.
type DialOptions struct {
	// Client overrides the HTTP client used to talk to shards (nil uses
	// a default client). Streams can be long-lived; do not set a
	// Timeout that would cut queries short.
	Client *http.Client
	// AuthToken, when non-empty, is sent as "Authorization: Bearer
	// <token>" on every shard request — required when the shards run
	// with -auth-token-file.
	AuthToken string
}

// Cluster is the coordinator-side handle of a partitioned graph: the
// client half of the scatter–gather layer. It fans each query out to
// every shard, streams their sorted owned emissions concurrently, and
// k-way merges them back into the canonical global emission order — the
// same stream a single-process Query.Ordered run of the full graph
// delivers, byte for byte, at every shard count and Workers value.
// Updates are routed by endpoint color ownership and installed with a
// two-phase commit under the handle's write lock, so a query never
// observes mixed shard generations (epochs are additionally pinned
// end-to-end: every shard request carries the coordinator's epoch and
// mismatches fail with 409 rather than mixing).
//
// A Cluster is safe for concurrent use. Queries hold a read lock and
// run concurrently with each other; Update holds the write lock.
type Cluster struct {
	man   *cluster.Manifest
	urls  []string
	hc    *http.Client
	token string

	mu       sync.RWMutex
	epoch    uint64
	vertices int
	edges    int64
	closed   bool
}

// DialCluster connects a coordinator to a running cluster: the manifest
// written by Partition plus one shard base URL per manifest entry, in
// shard order. The dial handshake fetches every shard's identity and
// refuses to proceed unless each one serves the manifest's coloring and
// its own color range, and all shards agree on the cluster epoch — a
// half-updated cluster is surfaced here instead of as silently wrong
// query results.
func DialCluster(ctx context.Context, manifestPath string, shardURLs []string, opts DialOptions) (*Cluster, error) {
	man, err := cluster.Load(manifestPath)
	if err != nil {
		return nil, err
	}
	if len(shardURLs) != len(man.Shards) {
		return nil, fmt.Errorf("repro: manifest has %d shards but %d URLs were given", len(man.Shards), len(shardURLs))
	}
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{}
	}
	c := &Cluster{man: man, hc: hc, token: opts.AuthToken}
	for _, u := range shardURLs {
		c.urls = append(c.urls, strings.TrimRight(u, "/"))
	}
	var epoch uint64
	for i := range c.urls {
		var info cluster.ShardInfoResponse
		if err := c.doJSON(ctx, i, http.MethodGet, "/v1/cluster/shard/info", nil, &info); err != nil {
			return nil, fmt.Errorf("repro: shard %d handshake: %w", i, err)
		}
		sh := man.Shards[i]
		if info.Index != sh.Index || info.Lo != sh.Lo || info.Hi != sh.Hi ||
			info.Colors != man.Colors || info.Seed != man.Seed {
			return nil, fmt.Errorf("repro: shard %d at %s serves [%d,%d) of %d colors (seed %d), manifest says [%d,%d) of %d (seed %d)",
				i, c.urls[i], info.Lo, info.Hi, info.Colors, info.Seed, sh.Lo, sh.Hi, man.Colors, man.Seed)
		}
		if i == 0 {
			epoch = info.Epoch
			c.vertices, c.edges = info.Vertices, info.Edges
		} else if info.Epoch != epoch {
			return nil, fmt.Errorf("repro: shards disagree on cluster epoch (%d vs shard 0's %d); the cluster is mid-update or diverged", info.Epoch, epoch)
		}
	}
	c.epoch = epoch
	return c, nil
}

// Close releases the handle. It does not stop the shard servers.
func (c *Cluster) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.hc.CloseIdleConnections()
	return nil
}

// Epoch returns the cluster epoch the handle believes current: the
// number of routed updates committed through it (plus any committed
// before it dialed).
func (c *Cluster) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// Shards returns the cluster's shard count.
func (c *Cluster) Shards() int { return len(c.urls) }

// Colors returns the cluster's color count C.
func (c *Cluster) Colors() int { return c.man.Colors }

// Seed returns the cluster coloring seed.
func (c *Cluster) Seed() uint64 { return c.man.Seed }

// NumVertices and NumEdges describe the cluster-wide graph as of the
// last handshake or routed update.
func (c *Cluster) NumVertices() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.vertices
}

// NumEdges returns the cluster-wide edge count; see NumVertices.
func (c *Cluster) NumEdges() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.edges
}

// ClusterShardRun is one shard's contribution to a gathered query.
type ClusterShardRun struct {
	// Index is the shard; Delivered counts its owned emissions.
	Index     int
	Delivered uint64
	// Subproblems counts the owned color tuples, empty ones included.
	Subproblems int
	// Builds and CanonIOs are always 0: shards solve their tuples in
	// place, without sub-builds. They remain only because the benchmark
	// module still reads them.
	Builds   int
	CanonIOs uint64
	// Stats sums the owned tuples' statistics, each taken from its tuple
	// alone: laying out the tuple's color-pair buckets and solving it on
	// a cold machine — a pure function of (graph, manifest, query),
	// independent of shard placement.
	Stats IOStats
}

// ClusterResult summarizes a gathered cluster query.
type ClusterResult struct {
	// Matches counts the cluster-wide matches enumerated; Delivered the
	// emissions actually gathered to the caller (fewer under Limit).
	Matches   uint64
	Delivered uint64
	// Vertices and Edges describe the cluster-wide graph (shard 0's
	// full suffix view) as of the generation the query ran on.
	Vertices int
	Edges    int64
	// Epoch is the cluster epoch the query ran on; every shard executed
	// at exactly this epoch.
	Epoch uint64
	// Subproblems and Stats aggregate the shard breakdowns:
	// deterministic cluster-wide totals, invariant in the shard count,
	// shard placement, and Workers. Stats covers per-tuple work only;
	// see ClusterShardRun. Builds and CanonIOs are always 0.
	Subproblems int
	Builds      int
	CanonIOs    uint64
	Stats       IOStats
	// Shards is the per-shard breakdown, ordered by shard index.
	Shards []ClusterShardRun
}

// TrianglesFunc enumerates every triangle of the cluster-wide graph,
// gathered from all shards into the canonical global order — the stream
// a single-process Query.Ordered triangles query of the full graph
// emits, byte for byte. emit runs on the calling goroutine.
//
// Each shard solves every color triple it owns with the Lemma 2 kernel
// of the CacheAware algorithm, under the manifest's coloring, so
// Algorithm must be CacheAware (the zero value); any other is refused.
// Seed has no effect: the manifest coloring is the only coloring.
// Workers (owned tuples solved at once on each shard), Mode and Limit
// apply; Ordered is implied. Under a Limit the shards still enumerate
// fully — the aggregate statistics always describe the whole query —
// and the gathered stream stops after Limit emissions.
func (c *Cluster) TrianglesFunc(ctx context.Context, q Query, emit func(a, b, c uint32)) (ClusterResult, error) {
	if err := cluster.CheckQuery("triangles", q.Algorithm.String(), c.man.Colors, 3); err != nil {
		return ClusterResult{}, fmt.Errorf("repro: %w", err)
	}
	req := cluster.ShardQueryRequest{Kind: "triangles", Algorithm: q.Algorithm.String()}
	var f func([]uint32)
	if emit != nil {
		f = func(vs []uint32) { emit(vs[0], vs[1], vs[2]) }
	}
	return c.run(ctx, req, 3, q, f)
}

// CliquesFunc enumerates every k-clique cluster-wide; the gathered
// stream matches a single-process Query.Ordered cliques query byte for
// byte. k must be at least 3, and the C^k color-tuple orderings of the
// cluster's C colors may not exceed 2^22 (the tuple-loop bound of the
// single-process clique solver). See TrianglesFunc for the query
// contract.
func (c *Cluster) CliquesFunc(ctx context.Context, k int, q Query, emit func(clique []uint32)) (ClusterResult, error) {
	if k < 3 {
		return ClusterResult{}, fmt.Errorf("repro: cluster cliques query needs k >= 3, got %d", k)
	}
	if err := cluster.CheckQuery("cliques", "", c.man.Colors, k); err != nil {
		return ClusterResult{}, fmt.Errorf("repro: %w", err)
	}
	return c.run(ctx, cluster.ShardQueryRequest{Kind: "cliques", K: k}, k, q, emit)
}

// MatchFunc enumerates every embedding of the named pattern
// cluster-wide, normalized (Pattern.Normalize) and gathered into the
// canonical global order — the single-process Query.Ordered match
// stream, byte for byte. The pattern travels by name, so it must be one
// of the predefined patterns (ParsePattern), and its fan-out is bounded
// as for CliquesFunc; see TrianglesFunc for the query contract.
func (c *Cluster) MatchFunc(ctx context.Context, p *Pattern, q Query, emit func(assign []uint32)) (ClusterResult, error) {
	if p == nil || p.p == nil {
		return ClusterResult{}, fmt.Errorf("repro: cluster match requires a non-nil pattern")
	}
	if _, err := ParsePattern(p.Name()); err != nil {
		return ClusterResult{}, fmt.Errorf("repro: cluster match requires a predefined pattern: %w", err)
	}
	if err := cluster.CheckQuery("match", "", c.man.Colors, p.K()); err != nil {
		return ClusterResult{}, fmt.Errorf("repro: %w", err)
	}
	return c.run(ctx, cluster.ShardQueryRequest{Kind: "match", Pattern: p.Name()}, p.K(), q, emit)
}

// shardStream is one shard's live query stream during a gather.
type shardStream struct {
	ch      chan []uint32
	trailer cluster.ShardQueryTrailer
	err     error
}

// run fans the query out, k-way merges the sorted shard streams of
// arity-vertex emissions, and aggregates the trailers. The merge
// invariant: each shard's stream is sorted (the shard sorts its owned
// emissions, and streamShard refuses a line out of order) and the owned
// sets are pairwise disjoint (each emission's color multiset has exactly
// one owner), so repeatedly taking the lexicographically least head
// yields the globally sorted stream with no duplicates.
func (c *Cluster) run(ctx context.Context, req cluster.ShardQueryRequest, arity int, q Query, emit func([]uint32)) (ClusterResult, error) {
	var cr ClusterResult
	if q.From != (Position{}) {
		return cr, errors.New("repro: Query.From does not travel over the cluster wire")
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return cr, ErrClusterClosed
	}
	epoch := c.epoch
	req.Epoch = &epoch
	req.Workers = q.Workers
	req.Native = q.Mode == ModeNative

	qctx, cancel := cancelableCtx(ctx)
	defer cancel()

	streams := make([]*shardStream, len(c.urls))
	var wg sync.WaitGroup
	for i := range streams {
		st := &shardStream{ch: make(chan []uint32, 256)}
		streams[i] = st
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(st.ch)
			st.err = c.streamShard(qctx, i, req, arity, st)
		}(i)
	}

	heads := make([][]uint32, len(streams))
	for i, st := range streams {
		heads[i] = <-st.ch
	}
	var delivered uint64
	limitHit := false
	for {
		best := -1
		for i, h := range heads {
			if h == nil {
				continue
			}
			if best == -1 || cluster.CompareTuples(h, heads[best]) < 0 {
				best = i
			}
		}
		if best == -1 {
			break
		}
		if !limitHit {
			if emit != nil {
				emit(heads[best])
			}
			delivered++
			if q.Limit > 0 && delivered >= q.Limit {
				// Stop emitting but keep draining: the shards have
				// already done the work, and their trailers carry the
				// deterministic aggregate statistics.
				limitHit = true
			}
		}
		heads[best] = <-streams[best].ch
	}
	wg.Wait()

	var err error
	var stats cluster.IOStats
	for i, st := range streams {
		if st.err != nil {
			err = errors.Join(err, fmt.Errorf("shard %d: %w", i, st.err))
			continue
		}
		tr := st.trailer
		if tr.Epoch != epoch {
			err = errors.Join(err, fmt.Errorf("shard %d answered at epoch %d, coordinator is at %d", i, tr.Epoch, epoch))
		}
		cr.Matches += tr.Delivered
		cr.Subproblems += tr.Subproblems
		stats.Add(tr.Stats)
		cr.Shards = append(cr.Shards, ClusterShardRun{
			Index:       i,
			Delivered:   tr.Delivered,
			Subproblems: tr.Subproblems,
			Stats:       IOStats(tr.Stats),
		})
		if i == 0 {
			cr.Vertices, cr.Edges = tr.Vertices, tr.Edges
		}
	}
	cr.Stats = IOStats(stats)
	cr.Delivered = delivered
	cr.Epoch = epoch
	if err != nil {
		return cr, fmt.Errorf("repro: cluster query: %w", err)
	}
	return cr, nil
}

// streamShard issues one shard's query and feeds its emission lines to
// st.ch in stream order. A line that is not an arity-vertex emission
// strictly after the shard's previous one ends the stream with an error,
// so a faulty shard can neither crash nor silently misorder the merge.
func (c *Cluster) streamShard(ctx context.Context, i int, req cluster.ShardQueryRequest, arity int, st *shardStream) error {
	resp, err := c.do(ctx, i, http.MethodPost, "/v1/cluster/shard/query", req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	sawTrailer := false
	var prev []uint32
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e cluster.Emission
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("bad stream line %q: %v", line, err)
		}
		if e.V != nil {
			switch {
			case len(e.V) != arity:
				return fmt.Errorf("stream line %q from %s has %d vertices where the query's emissions have %d", line, c.urls[i], len(e.V), arity)
			case prev != nil && cluster.CompareTuples(prev, e.V) >= 0:
				return fmt.Errorf("stream line %q from %s is not after the shard's previous line %v", line, c.urls[i], prev)
			}
			prev = e.V
			select {
			case st.ch <- e.V:
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		var tr cluster.ShardQueryTrailer
		if err := json.Unmarshal(line, &tr); err != nil {
			return fmt.Errorf("bad trailer %q: %v", line, err)
		}
		if tr.Error != "" {
			return errors.New(tr.Error)
		}
		if !tr.Done {
			return errors.New("stream trailer reports not done")
		}
		st.trailer = tr
		sawTrailer = true
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawTrailer {
		return errors.New("stream ended without a trailer")
	}
	return nil
}

// ClusterUpdateResult reports a routed update.
type ClusterUpdateResult struct {
	// Epoch is the cluster epoch now serving queries.
	Epoch uint64
	// Added, Removed, Vertices and Edges are the cluster-wide effective
	// change — shard 0's view, whose suffix range starts at color 0 and
	// therefore holds the full edge set.
	Added    int64
	Removed  int64
	Vertices int
	Edges    int64
	// MergeIOs sums the per-shard delta-merge costs. Unlike query
	// statistics it scales with the cluster: suffix replication
	// re-merges an edge once per holding shard.
	MergeIOs uint64
}

// Update routes a Delta through the cluster: each edge is forwarded to
// every shard whose suffix view holds it (all shards whose range starts
// at or below the edge's endpoint-color minimum), staged with a
// two-phase commit, and committed everywhere before the cluster epoch
// advances. Update holds the coordinator's write lock, so no query
// overlaps the install — combined with the epoch pinned on every shard
// request, a gathered stream can never mix generations. The routed
// result leaves each shard's sub-image byte-identical to a fresh
// Partition of the updated graph (the repo's update-equals-rebuild
// contract, per shard).
//
// If a prepare fails, the update is aborted everywhere and the cluster
// is unchanged. If a commit fails after others committed, Update
// returns an error and leaves the epoch unadvanced; the cluster is
// degraded — subsequent queries fail on the epoch mismatch instead of
// silently mixing. Re-issuing the same Update repairs it: a shard that
// already committed answers the re-issued prepare and commit with its
// remembered outcome, and the lagging shards stage and commit. A
// different Update fails on such a shard until then.
func (c *Cluster) Update(ctx context.Context, d Delta) (ClusterUpdateResult, error) {
	var ur ClusterUpdateResult
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ur, ErrClusterClosed
	}
	col := c.man.Coloring()
	S := len(c.urls)
	subAdd := make([][][2]uint32, S)
	subRemove := make([][][2]uint32, S)
	route := func(edges []Edge, into [][][2]uint32) {
		for _, e := range edges {
			cu, cv := col.Color(e[0]), col.Color(e[1])
			if cv < cu {
				cu = cv
			}
			for i := 0; i < S && c.man.Holds(i, cu); i++ {
				into[i] = append(into[i], e)
			}
		}
	}
	route(d.Add, subAdd)
	route(d.Remove, subRemove)

	target := c.epoch + 1
	phase := func(preq cluster.ShardUpdateRequest) ([]cluster.ShardUpdateResponse, error) {
		resps := make([]cluster.ShardUpdateResponse, S)
		errs := make([]error, S)
		var wg sync.WaitGroup
		for i := 0; i < S; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req := preq
				if req.Phase == cluster.PhasePrepare {
					req.Add, req.Remove = subAdd[i], subRemove[i]
				}
				errs[i] = c.doJSON(ctx, i, http.MethodPost, "/v1/cluster/shard/update", req, &resps[i])
			}(i)
		}
		wg.Wait()
		var err error
		for i, e := range errs {
			if e != nil {
				err = errors.Join(err, fmt.Errorf("shard %d: %w", i, e))
			}
		}
		return resps, err
	}

	base := cluster.ShardUpdateRequest{UpdateID: target, Epoch: c.epoch}
	base.Phase = cluster.PhasePrepare
	if _, err := phase(base); err != nil {
		base.Phase = cluster.PhaseAbort
		phase(base) // best-effort cleanup; the prepare error is the story
		return ur, fmt.Errorf("repro: cluster update prepare: %w", err)
	}
	base.Phase = cluster.PhaseCommit
	resps, err := phase(base)
	if err != nil {
		return ur, fmt.Errorf("repro: cluster update commit failed; the cluster is degraded until this update is re-issued: %w", err)
	}
	c.epoch = target
	c.vertices, c.edges = resps[0].Vertices, resps[0].Edges
	ur.Epoch = target
	ur.Added, ur.Removed = resps[0].Added, resps[0].Removed
	ur.Vertices, ur.Edges = resps[0].Vertices, resps[0].Edges
	for _, r := range resps {
		ur.MergeIOs += r.MergeIOs
	}
	return ur, nil
}

// do sends one shard request with the handle's auth token, and in, when
// non-nil, as its JSON body. It returns the response, whose body the
// caller closes, when the status is 200, and decodeHTTPError's error
// otherwise.
func (c *Cluster) do(ctx context.Context, i int, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, method, c.urls[i]+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeHTTPError(resp)
	}
	return resp, nil
}

// doJSON is do with the response's JSON body decoded into out.
func (c *Cluster) doJSON(ctx context.Context, i int, method, path string, in, out any) error {
	resp, err := c.do(ctx, i, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeHTTPError turns a non-200 shard response into an error carrying
// the server's JSON error body when it has one.
func decodeHTTPError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
}
