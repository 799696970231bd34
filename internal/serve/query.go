package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro"
	"repro/internal/cluster"
	"repro/internal/extmem"
	"repro/internal/subgraph"
	"repro/internal/trienum"
)

// The daemon's one query path. The four query-shaped endpoints — graph
// queries, subscriptions, shard queries and coordinator queries — name
// what they enumerate with the same four fields (kind, k, pattern,
// algorithm). Each validates them with resolveFamily, dispatches through
// the family's methods, and streams NDJSON through one ndjsonWriter.
// Every JSON request body, query or not, is read through decodeBody.

// maxRequestBytes caps every JSON request body. 64 MiB holds the largest
// inline edge lists and update batches the daemon is sent; a larger body
// is answered 413.
const maxRequestBytes = 64 << 20

// decodeBody decodes r's JSON body into v, reading at most
// maxRequestBytes. On failure it answers the request itself — 413 for an
// oversized body, 400 for malformed JSON — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, tooLarge.Limit)
	default:
		writeError(w, http.StatusBadRequest, "bad %s: %v", what, err)
	}
	return false
}

// family is a validated query family: what a query enumerates,
// independent of how it runs (seed, workers, mode) and of where a stream
// resumes.
type family struct {
	kind    string          // "triangles", "cliques" or "match"
	k       int             // clique size; cliques only
	pattern *repro.Pattern  // match only
	alg     repro.Algorithm // triangles only
}

// resolveFamily defaults and validates the family fields of a request:
// kind defaults to triangles, a triangles algorithm to cacheaware, and
// every field must apply to the kind.
func resolveFamily(kind string, k int, patName, algName string) (family, error) {
	f := family{kind: kind, k: k}
	if f.kind == "" {
		f.kind = "triangles"
	}
	switch f.kind {
	case "triangles":
		if k != 0 || patName != "" {
			return f, errors.New("k and pattern do not apply to a triangles query")
		}
		f.alg = repro.CacheAware
		if algName != "" {
			alg, err := repro.ParseAlgorithm(algName)
			if err != nil {
				return f, err
			}
			f.alg = alg
		}
	case "cliques":
		if k < 3 {
			return f, fmt.Errorf("cliques query needs k >= 3, got %d", k)
		}
		if algName != "" || patName != "" {
			return f, errors.New("algorithm and pattern do not apply to a cliques query")
		}
	case "match":
		if patName == "" {
			return f, errors.New("match query needs a pattern name")
		}
		if algName != "" || k != 0 {
			return f, errors.New("algorithm and k do not apply to a match query")
		}
		p, err := repro.ParsePattern(patName)
		if err != nil {
			return f, err
		}
		f.pattern = p
	default:
		return f, fmt.Errorf("unknown query kind %q (have triangles, cliques, match)", f.kind)
	}
	return f, nil
}

// clusterFamily resolves a cluster query's family and refuses what the
// cluster cannot run (cluster.CheckQuery). It sizes nothing by k.
func clusterFamily(kind string, k int, pattern, algorithm string, colors int) (family, error) {
	f, err := resolveFamily(kind, k, pattern, algorithm)
	if err != nil {
		return f, err
	}
	return f, cluster.CheckQuery(f.kind, f.alg.String(), colors, f.arity())
}

// arity is the number of vertices in one emission.
func (f family) arity() int {
	switch f.kind {
	case "cliques":
		return f.k
	case "match":
		return f.pattern.K()
	}
	return 3
}

// query runs the family on g. emit receives every emission as a vertex
// slice that is valid only during the call.
func (f family) query(ctx context.Context, g *repro.Graph, q repro.Query, emit func([]uint32)) (repro.Result, error) {
	switch f.kind {
	case "cliques":
		return g.CliquesFunc(ctx, f.k, q, emit)
	case "match":
		return g.MatchFunc(ctx, f.pattern, q, emit)
	}
	q.Algorithm = f.alg
	return g.TrianglesFunc(ctx, q, perTriangle(emit))
}

// gather runs the family across the cluster behind cl; emit is as for
// query.
func (f family) gather(ctx context.Context, cl *repro.Cluster, q repro.Query, emit func([]uint32)) (repro.ClusterResult, error) {
	switch f.kind {
	case "cliques":
		return cl.CliquesFunc(ctx, f.k, q, emit)
	case "match":
		return cl.MatchFunc(ctx, f.pattern, q, emit)
	}
	q.Algorithm = f.alg
	return cl.TrianglesFunc(ctx, q, perTriangle(emit))
}

// tupleSolve solves one ordering of a color tuple over the color-pair
// buckets laid out in edges at off, passing each match to emit.
type tupleSolve func(sp *extmem.Space, edges extmem.Extent, off []int64, tuple []int, emit func([]uint32)) error

// tupleSolver returns the solver of one color-tuple ordering for the
// family — the one the single-process engine runs per tuple — under the
// cluster coloring colorOf over C colors. It solves over the color-pair
// buckets laid out in edges at off, emitting each match as original ids
// in ascending order (by pattern position, for a match). The solver keeps
// state between calls, so each task needs its own.
//
// A match's representative is the least of its Aut(H) orbit under the
// ids the solver sees, and those are original ids here, so it is already
// the embedding Pattern.Normalize picks: the stream needs no rewriting.
func (f family) tupleSolver(C int, colorOf func(uint32) uint32) tupleSolve {
	var info subgraph.Info
	switch f.kind {
	case "cliques":
		var tables subgraph.CliqueTables
		return func(sp *extmem.Space, edges extmem.Extent, off []int64, tuple []int, emit func([]uint32)) error {
			return tables.Solve(sp, edges, off, C, tuple, &info, emit)
		}
	case "match":
		// The engine's pattern, rebuilt from the public one: the same name
		// and edges give the same automorphisms and search order, and the
		// public pattern was built from them, so this cannot fail.
		p := subgraph.MustPattern(f.pattern.Name(), f.pattern.K(), f.pattern.Edges())
		return func(sp *extmem.Space, edges extmem.Extent, off []int64, tuple []int, emit func([]uint32)) error {
			return p.SolveTuple(sp, edges, off, C, colorOf, tuple, &info, emit)
		}
	}
	return func(sp *extmem.Space, edges extmem.Extent, off []int64, t []int, emit func([]uint32)) error {
		trienum.SolveTriple(sp, edges, off, C, t[0], t[1], t[2], perTriangle(emit))
		return nil
	}
}

// perTriangle adapts a vertex-slice callback to a triangle callback.
func perTriangle(emit func([]uint32)) func(a, b, c uint32) {
	var tri [3]uint32
	return func(a, b, c uint32) {
		tri[0], tri[1], tri[2] = a, b, c
		emit(tri[:])
	}
}

// subscribe registers the family as a standing query on g.
func (f family) subscribe(ctx context.Context, g *repro.Graph, q repro.Query) (*repro.Subscription, error) {
	switch f.kind {
	case "cliques":
		return g.SubscribeCliques(ctx, f.k, q)
	case "match":
		return g.SubscribeMatch(ctx, f.pattern, q)
	}
	return g.Subscribe(ctx, q)
}

// queryStatus is the HTTP status of a query that failed before its
// stream began.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, repro.ErrInvalidPosition):
		return http.StatusBadRequest // a forged or mangled cursor
	case errors.Is(err, repro.ErrGraphClosed), errors.Is(err, repro.ErrClusterClosed):
		return http.StatusGone
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	}
	return http.StatusInternalServerError
}

// ndjsonWriter is the daemon's one NDJSON response writer. Emission lines
// are buffered and pushed to the client every flushEvery lines; every
// other line — a trailer, a subscription line — is flushed at once. The
// stream headers go out with the first line, so a handler can still
// answer with an error status until it has written one. After the first
// write error every later write is dropped and err keeps the error.
type ndjsonWriter struct {
	w          http.ResponseWriter
	bw         *bufio.Writer
	flushEvery int
	gen        string // X-Graph-Generation header value; "" sends none
	started    bool   // headers sent, a line written
	since      int    // emission lines since the last flush
	line       []byte
	lines      uint64 // emission lines written
	bytes      uint64 // bytes written
	err        error
}

func (s *Server) newNDJSON(w http.ResponseWriter, gen string) *ndjsonWriter {
	return &ndjsonWriter{w: w, bw: bufio.NewWriter(w), flushEvery: s.cfg.FlushEvery, gen: gen}
}

func (nw *ndjsonWriter) write(b []byte) {
	if nw.err != nil {
		return
	}
	if !nw.started {
		nw.started = true
		nw.w.Header().Set("Content-Type", "application/x-ndjson")
		if nw.gen != "" {
			nw.w.Header().Set("X-Graph-Generation", nw.gen)
		}
	}
	n, err := nw.bw.Write(b)
	nw.bytes += uint64(n)
	nw.err = err
}

// emit writes one emission line and returns the stream's error, if any.
func (nw *ndjsonWriter) emit(vs []uint32) error {
	nw.line = AppendEmission(nw.line[:0], vs)
	if nw.write(nw.line); nw.err == nil {
		nw.lines++
		if nw.since++; nw.since >= nw.flushEvery {
			nw.flush()
		}
	}
	return nw.err
}

// send writes v as one JSON line, flushes it to the client, and returns
// the stream's error, if any.
func (nw *ndjsonWriter) send(v any) error {
	b, _ := json.Marshal(v) // wire types always marshal
	nw.write(append(b, '\n'))
	nw.flush()
	return nw.err
}

func (nw *ndjsonWriter) flush() {
	nw.since = 0
	if nw.err == nil {
		nw.err = nw.bw.Flush()
	}
	if f, ok := nw.w.(http.Flusher); ok {
		f.Flush()
	}
}
