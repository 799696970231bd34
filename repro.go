// Package repro is an I/O-efficient subgraph enumeration library: a
// production-grade reproduction of
//
//	Rasmus Pagh and Francesco Silvestri,
//	"The Input/Output Complexity of Triangle Enumeration", PODS 2014.
//
// The library enumerates every triangle of an undirected graph using the
// paper's I/O-optimal algorithms — O(E^1.5/(sqrt(M)·B)) block transfers on
// a machine with M words of internal memory and blocks of B words —
// together with the pre-existing baselines it improves on, plus the
// Section 6 extensions: k-cliques and arbitrary connected patterns on at
// most 8 vertices, and the Section 1 join application. The external
// memory model is simulated with exact I/O accounting (see package
// internal/extmem), and can optionally be backed by a real file.
//
// # Graph handles and queries
//
// The paper's pipeline has two phases: an O(sort(E)) canonicalization
// (Section 1.3) and the enumeration proper. Build pays the first phase
// exactly once and returns a reusable *Graph handle; queries against the
// handle — Triangles, Cliques, Match — run only the second:
//
//	g, err := repro.Build(repro.FromEdges(edges), repro.Options{})
//	defer g.Close()
//	for t, err := range g.Triangles(ctx, repro.Query{}) {
//		...
//	}
//
// Every query has a callback form (TrianglesFunc, CliquesFunc,
// MatchFunc) returning a per-query Result, and a range-over-func
// iterator form (Triangles, Cliques, Match) yielding (value, error);
// breaking out of the iterator — or cancelling the context — stops the
// enumeration cooperatively and drains the worker pool. Build ingests
// an edge slice (FromEdges), the binary edge-file format (FromReader),
// text edge lists (FromTextReader), or a generator spec (FromSpec).
//
// Build freezes the canonical representation into an immutable core, and
// every query runs on a private session over it — its own M-word cache,
// statistics, and scratch — so any number of queries may run concurrently
// on one handle from different goroutines. Each reports exactly the
// Result of a serialized run: sessions start cold by construction, so
// emission order, I/O statistics, and CanonIOs are byte-identical however
// queries overlap. Emit callbacks may issue follow-up queries against the
// handle; Close waits for active queries to drain.
//
// # Updates and generations
//
// Handles are versioned: Update merges a batched edge delta — adds and
// removes, in the caller's vertex ids — against the frozen canonical
// image and atomically installs the result as the next immutable
// generation:
//
//	res, err := g.Update(ctx, repro.Delta{
//		Add:    [][2]uint32{{7, 9}},
//		Remove: [][2]uint32{{0, 1}},
//	})
//
// The delta is sorted with the parallel external-memory sorts and merged
// in O(sort(E_delta) + scan(E) + scan(V)) I/Os plus two sort(E)
// relabeling passes — degrees, ranks, and the canonical edge array are
// re-derived incrementally, well below the cost of rebuilding
// (UpdateResult.MergeIOs reports the deterministic, worker-invariant
// price; BenchmarkE18UpdateDelta compares the two). The installed image
// is byte-identical to what a fresh Build of the updated edge set would
// freeze, so queries after an Update behave exactly as on a rebuilt
// handle. Queries pin the generation current when they start: in-flight
// queries are untouched by concurrent updates (snapshot isolation), and
// a superseded generation's core is released when its last query drains.
//
// # Durability and recovery
//
// Disk-backed handles (Options.DiskPath) make the canonical image a
// first-class durable artifact. Build stamps the image file with a
// versioned, checksummed footer describing its layout (FORMAT.md
// specifies the bytes), and Open adopts such an image without re-paying
// the O(sort(E)) canonicalization — the footer is validated against the
// recomputed layout, the canonical extents are rebound in place, and
// queries run immediately; the adopted generation reports CanonIOs = 0,
// the one divergence from a fresh Build:
//
//	g, res, err := repro.Open(path, repro.Options{})
//	// res.Replayed, res.ReplayIOs, res.AdoptIOs say what recovery did
//
// Every effective Update of a disk-backed handle is also appended to a
// write-ahead log at DiskPath+".wal" — length-prefixed, checksummed,
// fsynced before the new generation becomes current — and Checkpoint
// (or Close) atomically promotes the latest generation over the image
// and truncates the log. A crash at any point therefore loses nothing
// that was confirmed: Open replays the surviving whole records through
// the same deterministic delta merges, discarding a torn tail, and the
// recovered graph is byte-identical — emission, Results, I/O statistics,
// canonical artifacts — to a fresh Build of the replayed edge set at
// every Workers value. At most one live handle may own a durable image
// at a time.
//
// # Parallel execution
//
// The cache-aware algorithms decompose into independent subproblems — the
// c³ color triples of Section 2 and the per-vertex high-degree passes of
// Lemma 1 — and queries run them on a pool of Workers workers (default:
// one per CPU). The O(sort(E)) substrate underneath them — edge
// canonicalization and the color-pair ordering — runs on the same pool
// via the parallel external-memory sorts of internal/emsort, whose output
// is byte-identical to the sequential sorts. Each worker executes
// subproblems on its own simulated machine, a private M-word cache over a
// shared read-only edge region, so the I/O accounting stays exact under
// concurrency: per-worker counts (Result.WorkerStats) sum to the same
// totals at every worker count, and the triangle stream handed to emit is
// byte-identical whether Workers is 1 or NumCPU. emit is always invoked
// from the calling goroutine, never concurrently.
//
// # Execution modes
//
// Queries run in one of two modes over the same engine. The faithful
// path (the default) routes every access through the simulated
// external-memory machine and reports the paper's exact block counts —
// use it to measure the algorithms. The fast path (Options.Native per
// handle, Query.Mode = ModeNative per query) runs the identical
// decomposition on direct slices with the accounting compiled out of
// the hot path — use it to time the algorithms, or wherever only the
// results matter. The emission stream is byte-identical between the
// modes at every Workers value, memory- and disk-backed; the one
// documented divergence is that a native run reports zero Result.Stats
// and nil Result.WorkerStats. Build, Open, and Update always run on
// the faithful path, so CanonIOs and merge costs stay meaningful.
//
// # Standing queries
//
// Subscribe registers a standing query on an updatable handle: after
// every effective Update (and after each WAL replay merge during Open),
// the subscription delivers a ChangeSet holding exactly the triangles —
// or k-cliques (SubscribeCliques) or pattern matches (SubscribeMatch) —
// the new generation added and retracted relative to the one it
// supersedes:
//
//	sub, err := g.Subscribe(ctx, repro.Query{})
//	defer sub.Close()
//	for cs := range sub.Changes() {
//		// cs.Added, cs.Removed, cs.Stats — the exact diff for cs.Generation
//	}
//
// ChangeSets are computed differentially (package internal/diff): a
// delta-restricted trie join scans the closure of the delta's endpoints
// against both frozen images instead of re-enumerating either, in I/Os
// proportional to the delta's neighborhood rather than the graph
// (BenchmarkE21Subscribe measures the gap). The stream is deterministic
// the same way queries are: the accumulated ChangeSets equal the diff
// of fresh enumerations of consecutive generations — tuples sorted,
// pattern matches in minimal-embedding form — and both the emissions
// and ChangeSet.Stats are byte-identical at every Workers value,
// memory- or disk-backed. Registration is atomic against updates
// (a subscription observes a generation's installation entirely or not
// at all), delivery never blocks Update (a slow consumer queues), and
// Close on the graph drains queued ChangeSets before ending the stream
// with ErrGraphClosed. The daemon exposes the same stream as NDJSON
// (POST /v1/graphs/{id}/subscriptions, see docs/API.md).
//
// # Beyond the library
//
// cmd/trienum is the command-line front end, and cmd/trienumd serves
// graph handles over HTTP/JSON to multiple tenants — streaming each
// query's deterministic emission order as NDJSON with resumable cursors
// (see docs/API.md). Past one machine, Partition splits a built graph
// into per-shard sub-images by color range, trienumd runs them as
// shard or coordinator roles, and DialCluster scatter–gathers queries
// whose merged stream is byte-identical to the single-process ordered
// run (see FORMAT.md for the manifest). ARCHITECTURE.md maps the
// layers from the simulated
// disk up to the daemon and states the determinism contract each one
// exports; see examples/ for complete programs and EXPERIMENTS.md for
// the reproduction of every complexity claim in the paper.
package repro

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// generatorParams types the parameter keys each generator accepts:
// 'i' for integers, 'f' for floats. Generate rejects unknown keys and
// malformed values instead of silently substituting zero.
var generatorParams = map[string]map[string]byte{
	"clique":    {"n": 'i'},
	"gnm":       {"n": 'i', "m": 'i'},
	"powerlaw":  {"n": 'i', "m": 'i', "beta": 'f'},
	"sells":     {"ns": 'i', "nb": 'i', "nt": 'i', "per": 'i', "avail": 'f'},
	"bipartite": {"n1": 'i', "n2": 'i', "m": 'i'},
	"grid":      {"r": 'i', "c": 'i'},
	"planted":   {"n": 'i', "m": 'i', "k": 'i'},
	"rmat":      {"scale": 'i', "m": 'i'},
}

// Generate builds a workload graph from a spec string such as
//
//	clique:n=100
//	gnm:n=1000,m=8000
//	powerlaw:n=1000,m=8000,beta=2.3
//	sells:ns=50,nb=20,nt=20,per=4,avail=0.3
//	bipartite:n1=100,n2=100,m=2000
//	grid:r=30,c=40
//	planted:n=500,m=2000,k=20
//	rmat:scale=10,m=8000
//
// Unknown parameter keys and malformed values are errors. Randomized
// generators are deterministic in seed.
func Generate(spec string, seed uint64) ([][2]uint32, error) {
	kind, params, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	known, ok := generatorParams[kind]
	if !ok {
		return nil, fmt.Errorf("repro: unknown generator %q", kind)
	}
	ints := map[string]int{}
	floats := map[string]float64{}
	for k, v := range params {
		switch known[k] {
		case 'i':
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("repro: generator %q: parameter %s=%q is not an integer", kind, k, v)
			}
			ints[k] = n
		case 'f':
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("repro: generator %q: parameter %s=%q is not a number", kind, k, v)
			}
			floats[k] = f
		default:
			keys := make([]string, 0, len(known))
			for kk := range known {
				keys = append(keys, kk)
			}
			sort.Strings(keys)
			return nil, fmt.Errorf("repro: generator %q: unknown parameter %q (have %v)", kind, k, keys)
		}
	}
	geti := func(key string, def int) int {
		if v, ok := ints[key]; ok {
			return v
		}
		return def
	}
	getf := func(key string, def float64) float64 {
		if v, ok := floats[key]; ok {
			return v
		}
		return def
	}
	var el graph.EdgeList
	switch kind {
	case "clique":
		el = graph.Clique(geti("n", 50))
	case "gnm":
		el = graph.GNM(geti("n", 1000), geti("m", 4000), seed)
	case "powerlaw":
		el = graph.PowerLaw(geti("n", 1000), geti("m", 4000), getf("beta", 2.3), seed)
	case "sells":
		el = graph.Sells(geti("ns", 50), geti("nb", 20), geti("nt", 20), geti("per", 4), getf("avail", 0.3), seed)
	case "bipartite":
		el = graph.BipartiteRandom(geti("n1", 100), geti("n2", 100), geti("m", 2000), seed)
	case "grid":
		el = graph.Grid(geti("r", 30), geti("c", 30))
	case "planted":
		el = graph.PlantedClique(geti("n", 500), geti("m", 2000), geti("k", 20), seed)
	case "rmat":
		el = graph.RMAT(geti("scale", 10), geti("m", 8000), seed)
	}
	out := make([][2]uint32, 0, len(el.Edges))
	for _, e := range el.Edges {
		out = append(out, [2]uint32{graph.U(e), graph.V(e)})
	}
	return out, nil
}

func parseSpec(spec string) (kind string, params map[string]string, err error) {
	params = map[string]string{}
	kind, rest, found := strings.Cut(spec, ":")
	kind = strings.TrimSpace(strings.ToLower(kind))
	if kind == "" {
		return "", nil, fmt.Errorf("repro: empty graph spec")
	}
	if !found {
		return kind, params, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", nil, fmt.Errorf("repro: bad spec parameter %q", kv)
		}
		params[strings.TrimSpace(strings.ToLower(k))] = strings.TrimSpace(v)
	}
	return kind, params, nil
}
