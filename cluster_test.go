// Cluster invariance suite: the scatter–gather layer's contract, pinned
// end to end over real HTTP shard servers.
//
// The contract under test: for any shard count S, the gathered stream
// of a cluster query is byte-identical to a single-process Query.Ordered
// run of the full graph at every Workers value, and the aggregate
// simulated IOs summed over shards are a pure function of (graph,
// manifest, query) — never of process placement, shard count, backing
// store, or concurrency.
//
// This file lives in package repro_test (not repro) because it imports
// internal/serve for the shard server side; the root package itself
// must not depend on serve.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// startCluster partitions g into S shards under a fresh directory and
// serves each sub-image on its own httptest server. When memoryBacked,
// the shard handles are rebuilt in memory from the sub-image edge sets
// instead of serving the durable images directly — the gathered stream
// must not care.
func startCluster(t testing.TB, g *repro.Graph, shards, colors int, memoryBacked bool) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	pr, err := repro.Partition(context.Background(), g, repro.PartitionOptions{Dir: dir, Shards: shards, Colors: colors})
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	man, err := cluster.Load(pr.ManifestPath)
	if err != nil {
		t.Fatalf("loading manifest: %v", err)
	}
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		sg, _, err := repro.Open(pr.Shards[i].Image, repro.Options{})
		if err != nil {
			t.Fatalf("opening shard %d: %v", i, err)
		}
		if memoryBacked {
			var es [][2]uint32
			if err := sg.EdgesFunc(nil, func(u, v uint32) { es = append(es, [2]uint32{u, v}) }); err != nil {
				t.Fatal(err)
			}
			if err := sg.Close(); err != nil {
				t.Fatal(err)
			}
			sg, err = repro.Build(repro.FromEdges(es), repro.Options{
				MemoryWords: man.MemoryWords, BlockWords: man.BlockWords,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		srv := serve.New(serve.Config{})
		if err := srv.ServeShard(man, i, sg); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		t.Cleanup(func() { srv.Close() })
		urls[i] = hs.URL
	}
	return pr.ManifestPath, urls
}

func dial(t testing.TB, manifestPath string, urls []string) *repro.Cluster {
	t.Helper()
	cl, err := repro.DialCluster(context.Background(), manifestPath, urls, repro.DialOptions{})
	if err != nil {
		t.Fatalf("DialCluster: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// orderedRef encodes the single-process Query.Ordered stream of g with
// the wire encoder — the byte string every gathered stream must equal.
func orderedRef(t testing.TB, g *repro.Graph, kind string, k int, pat *repro.Pattern, q Q) ([]byte, repro.Result) {
	t.Helper()
	q.Ordered = true
	var buf bytes.Buffer
	var res repro.Result
	q.Result = &res
	var err error
	switch kind {
	case "triangles":
		_, err = g.TrianglesFunc(context.Background(), q, func(a, b, c uint32) {
			buf.Write(serve.AppendEmission(nil, []uint32{a, b, c}))
		})
	case "cliques":
		_, err = g.CliquesFunc(context.Background(), k, q, func(vs []uint32) {
			buf.Write(serve.AppendEmission(nil, vs))
		})
	case "match":
		_, err = g.MatchFunc(context.Background(), pat, q, func(vs []uint32) {
			buf.Write(serve.AppendEmission(nil, vs))
		})
	}
	if err != nil {
		t.Fatalf("reference %s query: %v", kind, err)
	}
	return buf.Bytes(), res
}

// Q aliases repro.Query for brevity in table literals.
type Q = repro.Query

// gather runs one cluster query and encodes the gathered stream with
// the wire encoder.
func gather(t testing.TB, cl *repro.Cluster, kind string, k int, pat *repro.Pattern, q Q) ([]byte, repro.ClusterResult) {
	t.Helper()
	var buf bytes.Buffer
	var cr repro.ClusterResult
	var err error
	switch kind {
	case "triangles":
		cr, err = cl.TrianglesFunc(context.Background(), q, func(a, b, c uint32) {
			buf.Write(serve.AppendEmission(nil, []uint32{a, b, c}))
		})
	case "cliques":
		cr, err = cl.CliquesFunc(context.Background(), k, q, func(vs []uint32) {
			buf.Write(serve.AppendEmission(nil, vs))
		})
	case "match":
		cr, err = cl.MatchFunc(context.Background(), pat, q, func(vs []uint32) {
			buf.Write(serve.AppendEmission(nil, vs))
		})
	}
	if err != nil {
		t.Fatalf("gathered %s query: %v", kind, err)
	}
	return buf.Bytes(), cr
}

// aggKey is the placement-invariant aggregate of a gathered query: if
// any of this varies with S, Workers, or backing store, the cluster's
// cost accounting has leaked its topology.
func aggKey(cr repro.ClusterResult) string {
	return fmt.Sprintf("m=%d sub=%d builds=%d canon=%d stats=%+v v=%d e=%d",
		cr.Matches, cr.Subproblems, cr.Builds, cr.CanonIOs, cr.Stats, cr.Vertices, cr.Edges)
}

// TestClusterByteIdentity is the tentpole contract: S ∈ {1,2,4} ×
// Workers ∈ {1,4}, gathered triangle stream byte-identical to the
// single-process ordered query, aggregates identical across every cell.
func TestClusterByteIdentity(t *testing.T) {
	g, err := repro.Build(repro.FromSpec("gnm:n=300,m=1600"), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	want, _ := orderedRef(t, g, "triangles", 0, nil, Q{Seed: 7})

	var agg string
	for _, S := range []int{1, 2, 4} {
		manPath, urls := startCluster(t, g, S, 4, false)
		cl := dial(t, manPath, urls)
		for _, workers := range []int{1, 4} {
			got, cr := gather(t, cl, "triangles", 0, nil, Q{Seed: 7, Workers: workers})
			if !bytes.Equal(got, want) {
				t.Fatalf("S=%d workers=%d: gathered stream diverges from the single-process ordered stream", S, workers)
			}
			if cr.Epoch != 0 || cr.Delivered != cr.Matches {
				t.Fatalf("S=%d workers=%d: trailer epoch/delivered wrong: %+v", S, workers, cr)
			}
			if key := aggKey(cr); agg == "" {
				agg = key
			} else if key != agg {
				t.Fatalf("S=%d workers=%d: aggregate IOs changed with placement:\n got %s\nwant %s", S, workers, key, agg)
			}
			if len(cr.Shards) != S {
				t.Fatalf("S=%d: trailer has %d shard runs", S, len(cr.Shards))
			}
		}
	}
}

// TestClusterKindsAndLimit covers cliques and match gathering, plus the
// Limit contract: a limited gather is a prefix of the stream while the
// aggregates still describe the full enumeration.
func TestClusterKindsAndLimit(t *testing.T) {
	g, err := repro.Build(repro.FromSpec("gnm:n=150,m=900"), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	manPath, urls := startCluster(t, g, 2, 4, false)
	cl := dial(t, manPath, urls)

	for _, tc := range []struct {
		kind string
		k    int
		pat  *repro.Pattern
	}{
		{kind: "cliques", k: 4},
		{kind: "match", pat: repro.PatternDiamond},
		{kind: "match", pat: repro.PatternPath3},
	} {
		want, _ := orderedRef(t, g, tc.kind, tc.k, tc.pat, Q{Seed: 3})
		got, _ := gather(t, cl, tc.kind, tc.k, tc.pat, Q{Seed: 3, Workers: 2})
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: gathered stream diverges from single-process ordered stream", tc.kind)
		}
	}

	full, fullCR := gather(t, cl, "triangles", 0, nil, Q{})
	if fullCR.Matches < 8 {
		t.Fatalf("test graph too sparse: %d triangles", fullCR.Matches)
	}
	lim, limCR := gather(t, cl, "triangles", 0, nil, Q{Limit: 5})
	lines := bytes.SplitAfter(full, []byte("\n"))
	var prefix []byte
	for i := 0; i < 5; i++ {
		prefix = append(prefix, lines[i]...)
	}
	if !bytes.Equal(lim, prefix) {
		t.Fatal("limited gather is not a prefix of the full gathered stream")
	}
	if limCR.Delivered != 5 || limCR.Matches != fullCR.Matches {
		t.Fatalf("limited trailer: delivered=%d matches=%d, want 5/%d", limCR.Delivered, limCR.Matches, fullCR.Matches)
	}
	if aggKey(limCR) != aggKey(fullCR) {
		t.Fatal("a Limit changed the aggregate statistics (shards must enumerate fully)")
	}
}

// TestClusterBackingStoreInvariance: disk-backed and memory-backed
// shard handles serve byte-identical gathered streams with identical
// aggregates.
func TestClusterBackingStoreInvariance(t *testing.T) {
	g, err := repro.Build(repro.FromSpec("gnm:n=200,m=1100"), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	manDisk, urlsDisk := startCluster(t, g, 2, 4, false)
	manMem, urlsMem := startCluster(t, g, 2, 4, true)
	clDisk := dial(t, manDisk, urlsDisk)
	clMem := dial(t, manMem, urlsMem)

	sDisk, crDisk := gather(t, clDisk, "triangles", 0, nil, Q{Seed: 9})
	sMem, crMem := gather(t, clMem, "triangles", 0, nil, Q{Seed: 9})
	if !bytes.Equal(sDisk, sMem) {
		t.Fatal("gathered stream depends on the shards' backing store")
	}
	if aggKey(crDisk) != aggKey(crMem) {
		t.Fatalf("aggregates depend on the shards' backing store:\n disk %s\n mem  %s", aggKey(crDisk), aggKey(crMem))
	}
}

// TestClusterRoutedUpdate: a routed update leaves the cluster
// answering exactly like a cluster freshly partitioned from the updated
// graph — and like a single-process ordered query of it.
func TestClusterRoutedUpdate(t *testing.T) {
	g, err := repro.Build(repro.FromSpec("gnm:n=120,m=700"), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	manPath, urls := startCluster(t, g, 2, 4, false)
	cl := dial(t, manPath, urls)

	delta := repro.Delta{
		Add:    [][2]uint32{{1, 2}, {3, 200}, {200, 201}, {2, 3}},
		Remove: [][2]uint32{{0, 1}, {5, 9}},
	}
	ur, err := cl.Update(context.Background(), delta)
	if err != nil {
		t.Fatalf("routed update: %v", err)
	}
	if ur.Epoch != 1 || cl.Epoch() != 1 {
		t.Fatalf("epoch after one update = %d/%d, want 1", ur.Epoch, cl.Epoch())
	}

	// The updated single-process truth.
	if _, err := g.Update(context.Background(), delta); err != nil {
		t.Fatal(err)
	}
	want, _ := orderedRef(t, g, "triangles", 0, nil, Q{Seed: 4})
	got, gotCR := gather(t, cl, "triangles", 0, nil, Q{Seed: 4})
	if !bytes.Equal(got, want) {
		t.Fatal("post-update gathered stream diverges from the updated graph's ordered stream")
	}
	if gotCR.Epoch != 1 {
		t.Fatalf("post-update query ran at epoch %d, want 1", gotCR.Epoch)
	}
	if gotCR.Vertices != g.NumVertices() || gotCR.Edges != g.NumEdges() {
		t.Fatalf("post-update cluster describes %d/%d, graph is %d/%d",
			gotCR.Vertices, gotCR.Edges, g.NumVertices(), g.NumEdges())
	}

	// Routed update equals rebuild: a cluster partitioned fresh from the
	// updated graph gathers the same bytes with the same aggregates.
	manPath2, urls2 := startCluster(t, g, 2, 4, false)
	cl2 := dial(t, manPath2, urls2)
	got2, cr2 := gather(t, cl2, "triangles", 0, nil, Q{Seed: 4})
	if !bytes.Equal(got, got2) {
		t.Fatal("routed-updated cluster and freshly-partitioned cluster gather different streams")
	}
	if aggKey(gotCR) != aggKey(cr2) {
		t.Fatalf("routed-updated cluster and fresh partition disagree on aggregates:\n upd   %s\n fresh %s",
			aggKey(gotCR), aggKey(cr2))
	}
}

// TestClusterMixedGenerationNeverObserved: queries racing a routed
// update each see exactly the pre-update or the post-update stream —
// never a mix of shard generations.
func TestClusterMixedGenerationNeverObserved(t *testing.T) {
	g, err := repro.Build(repro.FromSpec("gnm:n=120,m=700"), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	manPath, urls := startCluster(t, g, 2, 4, false)
	cl := dial(t, manPath, urls)

	delta := repro.Delta{Add: [][2]uint32{{1, 2}, {2, 3}, {1, 3}, {7, 8}}, Remove: [][2]uint32{{0, 1}}}
	pre, _ := orderedRef(t, g, "triangles", 0, nil, Q{Seed: 5})
	g2, err := repro.Build(repro.FromSpec("gnm:n=120,m=700"), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if _, err := g2.Update(context.Background(), delta); err != nil {
		t.Fatal(err)
	}
	post, _ := orderedRef(t, g2, "triangles", 0, nil, Q{Seed: 5})

	const queriers = 4
	results := make(chan []byte, queriers*4)
	errs := make(chan error, queriers*4)
	start := make(chan struct{})
	done := make(chan struct{})
	for w := 0; w < queriers; w++ {
		go func() {
			<-start
			for i := 0; i < 4; i++ {
				var buf bytes.Buffer
				_, err := cl.TrianglesFunc(context.Background(), Q{Seed: 5}, func(a, b, c uint32) {
					buf.Write(serve.AppendEmission(nil, []uint32{a, b, c}))
				})
				if err != nil {
					errs <- err
				} else {
					results <- buf.Bytes()
				}
			}
			done <- struct{}{}
		}()
	}
	close(start)
	if _, err := cl.Update(context.Background(), delta); err != nil {
		t.Fatalf("update racing queries: %v", err)
	}
	for w := 0; w < queriers; w++ {
		<-done
	}
	close(results)
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query failed: %v", err)
	}
	var sawPre, sawPost bool
	for stream := range results {
		switch {
		case bytes.Equal(stream, pre):
			sawPre = true
		case bytes.Equal(stream, post):
			sawPost = true
		default:
			t.Fatal("a concurrent query observed a stream that is neither the pre- nor the post-update stream")
		}
	}
	_ = sawPre
	if !sawPost {
		// The update committed before the last round of queries, so at
		// least one must have seen the new generation.
		t.Log("note: no query observed the post-update stream (all raced ahead of the commit)")
	}
}

// TestClusterEpochPinning: a second coordinator that has not seen a
// routed update gets a clean epoch-mismatch failure, not stale or mixed
// results.
func TestClusterEpochPinning(t *testing.T) {
	g, err := repro.Build(repro.FromSpec("gnm:n=100,m=500"), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	manPath, urls := startCluster(t, g, 2, 4, false)
	cl1 := dial(t, manPath, urls)
	cl2 := dial(t, manPath, urls)

	if _, err := cl1.Update(context.Background(), repro.Delta{Add: [][2]uint32{{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	_, err = cl2.TrianglesFunc(context.Background(), Q{}, nil)
	if err == nil {
		t.Fatal("stale coordinator's query succeeded; want an epoch mismatch")
	}
	if !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("stale coordinator failed with %v; want an epoch mismatch", err)
	}
}

// TestClusterShardExactlyOnce: summing the per-shard Delivered counts
// reproduces the global count at every S — each match is owned by
// exactly one shard.
func TestClusterShardExactlyOnce(t *testing.T) {
	g, err := repro.Build(repro.FromSpec("gnm:n=250,m=1400"), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var res repro.Result
	if _, err := g.TrianglesFunc(context.Background(), Q{Result: &res}, nil); err != nil {
		t.Fatal(err)
	}
	for _, S := range []int{2, 4} {
		manPath, urls := startCluster(t, g, S, 4, false)
		cl := dial(t, manPath, urls)
		_, cr := gather(t, cl, "triangles", 0, nil, Q{})
		var sum uint64
		for _, sh := range cr.Shards {
			sum += sh.Delivered
		}
		if sum != res.Triangles || cr.Matches != res.Triangles {
			t.Fatalf("S=%d: shard deliveries sum to %d, matches %d, single-process %d", S, sum, cr.Matches, res.Triangles)
		}
	}
}

// TestClusterTinyGraph: a graph with fewer edges than shards leaves
// some sub-images empty; empty shards still participate (epochs, empty
// sorted streams) and the gathered result stays exact.
func TestClusterTinyGraph(t *testing.T) {
	g, err := repro.Build(repro.FromEdges([][2]uint32{{1, 2}, {2, 3}, {1, 3}}), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	want, _ := orderedRef(t, g, "triangles", 0, nil, Q{})
	manPath, urls := startCluster(t, g, 4, 4, false)
	cl := dial(t, manPath, urls)
	got, cr := gather(t, cl, "triangles", 0, nil, Q{})
	if !bytes.Equal(got, want) {
		t.Fatal("tiny-graph gathered stream diverges from the ordered stream")
	}
	if cr.Matches != 1 {
		t.Fatalf("the one triangle gathered %d times", cr.Matches)
	}
	// A routed update through the empty shards works too.
	if _, err := cl.Update(context.Background(), repro.Delta{Add: [][2]uint32{{3, 4}, {1, 4}}}); err != nil {
		t.Fatalf("routed update with empty sub-deltas: %v", err)
	}
	if cl.Epoch() != 1 {
		t.Fatalf("epoch = %d after update", cl.Epoch())
	}
}

// TestClusterMaxVertexID: shards solve over original vertex ids, so the
// largest uint32 id reaches the tuple solvers unranked — for one, as the
// pivot endpoint of the triangle {1, 2, 2^32-1}. Every family's gathered
// stream equals the single-process ordered stream, on a fresh partition
// and after a routed update through that vertex.
func TestClusterMaxVertexID(t *testing.T) {
	const top = ^uint32(0)
	edges := [][2]uint32{{1, 2}, {2, top}, {1, top}}
	k5 := []uint32{0, 3, 4, top - 1, top} // triangles, 4-cliques, diamonds through top
	for i, u := range k5 {
		for _, v := range k5[i+1:] {
			edges = append(edges, [2]uint32{u, v})
		}
	}
	g, err := repro.Build(repro.FromEdges(edges), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	families := []struct {
		kind string
		k    int
		pat  *repro.Pattern
	}{{kind: "triangles"}, {kind: "cliques", k: 4}, {kind: "match", pat: repro.PatternDiamond}}
	check := func(cl *repro.Cluster, cell string) {
		t.Helper()
		for _, f := range families {
			want, _ := orderedRef(t, g, f.kind, f.k, f.pat, Q{})
			for _, workers := range []int{1, 4} {
				if got, _ := gather(t, cl, f.kind, f.k, f.pat, Q{Workers: workers}); !bytes.Equal(got, want) {
					t.Fatalf("%s %s workers=%d: gathered stream\n%s\ndiverges from the single-process ordered stream\n%s", cell, f.kind, workers, got, want)
				}
			}
		}
	}
	for _, S := range []int{1, 2} {
		manPath, urls := startCluster(t, g, S, 4, false)
		check(dial(t, manPath, urls), fmt.Sprintf("S=%d", S))
	}
	manPath, urls := startCluster(t, g, 2, 4, false)
	cl := dial(t, manPath, urls)
	d := repro.Delta{Add: [][2]uint32{{5, top}, {1, 5}, {3, 5}}}
	if _, err := cl.Update(context.Background(), d); err != nil {
		t.Fatalf("routed update through vertex 2^32-1: %v", err)
	}
	if _, err := g.Update(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	check(cl, "after a routed update")
}

// TestPartitionManifestRoundtrip: the manifest records what Partition
// did, and DialCluster rejects a shard serving the wrong range.
func TestPartitionManifestRoundtrip(t *testing.T) {
	g, err := repro.Build(repro.FromSpec("gnm:n=100,m=500"), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	manPath, urls := startCluster(t, g, 2, 4, false)
	man, err := cluster.Load(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if man.Colors != 4 || len(man.Shards) != 2 || man.Edges != g.NumEdges() {
		t.Fatalf("manifest does not describe the partition: %+v", man)
	}
	// Swapped URLs ↔ shard identity mismatch must be refused at dial.
	if _, err := repro.DialCluster(context.Background(), manPath, []string{urls[1], urls[0]}, repro.DialOptions{}); err == nil {
		t.Fatal("DialCluster accepted shards served in the wrong slots")
	}
	if !reflect.DeepEqual([]string{urls[0], urls[1]}, urls) {
		t.Fatal("unreachable")
	}
}

// TestClusterFamiliesInvariant pins the shard contract for every query
// family the cluster serves, in both modes: at S ∈ {1,2,4} and Workers ∈
// {1,4}, the gathered stream equals the single-process ordered stream
// byte for byte, the aggregate is identical across S and Workers for
// each family and mode, and a native gather reports zero Stats.
func TestClusterFamiliesInvariant(t *testing.T) {
	g, err := repro.Build(repro.FromSpec("planted:n=300,m=2200,k=12"), repro.Options{MemoryWords: 1 << 10, BlockWords: 1 << 5})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	families := []struct {
		name, kind string
		k          int
		pat        *repro.Pattern
	}{
		{name: "triangles", kind: "triangles"},
		{name: "4-cliques", kind: "cliques", k: 4},
		{name: "diamond", kind: "match", pat: repro.PatternDiamond},
		{name: "path3", kind: "match", pat: repro.PatternPath3},
	}
	want := map[string][]byte{}
	for _, f := range families {
		want[f.name], _ = orderedRef(t, g, f.kind, f.k, f.pat, Q{})
	}
	agg := map[string]string{}
	for _, S := range []int{1, 2, 4} {
		manPath, urls := startCluster(t, g, S, 4, false)
		cl := dial(t, manPath, urls)
		for _, f := range families {
			for _, native := range []bool{false, true} {
				mode := repro.ModeSimulated
				if native {
					mode = repro.ModeNative
				}
				for _, workers := range []int{1, 4} {
					cell := fmt.Sprintf("%s native=%v S=%d workers=%d", f.name, native, S, workers)
					got, cr := gather(t, cl, f.kind, f.k, f.pat, Q{Workers: workers, Mode: mode})
					if !bytes.Equal(got, want[f.name]) {
						t.Fatalf("%s: gathered stream diverges from the single-process ordered stream", cell)
					}
					if native != (cr.Stats == repro.IOStats{}) {
						t.Fatalf("%s: Stats %+v (a native gather reports zero Stats, a simulated one does not)", cell, cr.Stats)
					}
					key := fmt.Sprintf("%s native=%v", f.name, native)
					if a, ok := agg[key]; !ok {
						agg[key] = aggKey(cr)
					} else if a != aggKey(cr) {
						t.Fatalf("%s: aggregate changed with placement:\n got %s\nwant %s", cell, aggKey(cr), a)
					}
				}
			}
		}
	}
}

// TestClusterAggregateBound: on the benchmark's sim-mem graph at S = 1,
// with the color count Partition picks, a gathered triangle query costs
// at most twice the I/Os of the single-process ordered query — solving
// the owned tuples in place keeps the kernel within the paper's bound.
func TestClusterAggregateBound(t *testing.T) {
	g, err := repro.Build(repro.FromSpec("powerlaw:n=8000,m=40000,beta=2.1"), repro.Options{MemoryWords: 1 << 12, BlockWords: 1 << 6})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	want, res := orderedRef(t, g, "triangles", 0, nil, Q{})
	manPath, urls := startCluster(t, g, 1, 0, false)
	got, cr := gather(t, dial(t, manPath, urls), "triangles", 0, nil, Q{})
	if !bytes.Equal(got, want) {
		t.Fatal("gathered stream diverges from the single-process ordered stream")
	}
	single := res.Stats.BlockReads + res.Stats.BlockWrites
	gathered := cr.Stats.BlockReads + cr.Stats.BlockWrites
	t.Logf("gathered %d I/Os over %d subproblems, single-process %d", gathered, cr.Subproblems, single)
	if gathered > 2*single {
		t.Fatalf("gathered query cost %d I/Os, more than twice the single-process query's %d", gathered, single)
	}
}

// TestClusterRefusals: a query the shards cannot run as asked — a
// triangle algorithm other than CacheAware, or more than 2^22 color-tuple
// orderings — is refused before any work: the Cluster methods return an
// error, and both cluster endpoints answer 400 with an ErrorResponse.
func TestClusterRefusals(t *testing.T) {
	g, err := repro.Build(repro.FromSpec("gnm:n=60,m=300"), repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	manPath, urls := startCluster(t, g, 1, 4, false)
	cl := dial(t, manPath, urls)
	ctx := context.Background()
	if _, err := cl.TrianglesFunc(ctx, Q{Algorithm: repro.Deterministic}, nil); err == nil {
		t.Error("a cluster triangles query with the Deterministic algorithm ran")
	}
	for _, k := range []int{12, 1 << 40} { // 4^12 = 2^24 orderings
		if _, err := cl.CliquesFunc(ctx, k, Q{}, nil); err == nil {
			t.Errorf("a cluster %d-cliques query over 4 colors ran", k)
		}
	}

	coord := serve.New(serve.Config{})
	t.Cleanup(func() { coord.Close() })
	if err := coord.ServeCoordinator(cl); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	for _, url := range []string{urls[0] + "/v1/cluster/shard/query", ts.URL + "/v1/cluster/query"} {
		for _, body := range []string{`{"algorithm":"deterministic"}`, `{"kind":"cliques","k":12}`, `{"kind":"cliques","k":1000000000000}`} {
			resp, err := http.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var e serve.ErrorResponse
			json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
				t.Errorf("%s at %s: status %d (error %q), want 400 with an error", body, url, resp.StatusCode, e.Error)
			}
		}
	}
}

// TestPartitionDefaultColors: with Colors unset, Partition picks the
// paper's c = ⌈√(E/M)⌉, at least 4 and at most 21 — the most colors at
// which a 5-vertex query stays within the fan-out bound — then at least
// Shards.
func TestPartitionDefaultColors(t *testing.T) {
	for _, tc := range []struct {
		spec       string
		opts       repro.Options
		shards     int
		wantColors int
	}{
		{"gnm:n=5000,m=25600", repro.Options{MemoryWords: 1 << 8, BlockWords: 1 << 4}, 1, 10}, // E = 100·M
		{"gnm:n=100,m=500", repro.Options{}, 1, 4},
		{"gnm:n=100,m=500", repro.Options{}, 6, 6},
		{"gnm:n=3000,m=8000", repro.Options{MemoryWords: 1 << 4, BlockWords: 1 << 2}, 1, 21}, // ⌈√(E/M)⌉ = 23
	} {
		g, err := repro.Build(repro.FromSpec(tc.spec), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		E := g.NumEdges()
		pr, err := repro.Partition(context.Background(), g, repro.PartitionOptions{Dir: t.TempDir(), Shards: tc.shards})
		g.Close()
		if err != nil {
			t.Fatal(err)
		}
		if pr.Colors != tc.wantColors {
			t.Errorf("%s (E=%d) at S=%d: Partition picked %d colors, want %d", tc.spec, E, tc.shards, pr.Colors, tc.wantColors)
		}
		if err := cluster.CheckQuery("cliques", "", pr.Colors, 5); err != nil {
			t.Errorf("%s at S=%d: a 5-clique query is refused on the default partition: %v", tc.spec, tc.shards, err)
		}
	}
}
