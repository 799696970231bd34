package repro

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/ctxutil"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/subgraph"
	"repro/internal/trienum"
)

// Query configures one enumeration run against a Graph handle.
type Query struct {
	// Algorithm selects the triangle-enumeration algorithm for Triangles
	// queries (default CacheAware). Cliques and Match always use the
	// Section 6 color-coding decomposition and ignore it.
	Algorithm Algorithm
	// Seed drives the randomized decompositions; a query is deterministic
	// in it.
	Seed uint64
	// Workers overrides the Graph's Options.Workers for this query
	// (0 = inherit). CacheAware, CacheOblivious, and Deterministic run
	// parallel phases; emission and aggregated statistics are identical
	// at every worker count.
	Workers int
	// Mode overrides the handle's execution mode for this query:
	// ModeAuto (default) inherits Options.Native, ModeSimulated forces
	// the simulated machine, ModeNative forces native execution. The
	// emission stream is byte-identical either way; a native run reports
	// zero Stats and nil WorkerStats. See Options.Native.
	Mode ExecMode
	// FamilySize overrides the small-bias family size used by the
	// Deterministic algorithm (0 = default).
	FamilySize int
	// Ordered delivers the emissions in the canonical global order:
	// ascending lexicographic vertex tuples, with Match embeddings
	// first normalized to their orbit representative
	// (Pattern.Normalize). The plain stream follows the decomposition
	// order — deterministic, but a function of the image the query ran
	// on — whereas the ordered stream is a pure function of the edge
	// set and the query alone, which is what makes independently
	// executed partitions of a query mergeable: the cluster layer's
	// gathered stream is byte-identical to a single-process Ordered
	// query. Ordering happens at the delivery layer: the producer runs
	// to completion (buffering one id per emitted vertex, charged no
	// simulated I/O), the buffered tuples are sorted, and emit receives
	// them from the calling goroutine. Consequently a Limit applies to
	// the sorted stream (the producer still enumerates fully, so Stats
	// match the unlimited run), and a cancelled or failed run delivers
	// no emissions at all — a partial set has no canonical prefix.
	Ordered bool
	// Limit, when positive, stops the query cleanly after Limit
	// emissions: the producer is cancelled cooperatively (as if the
	// context had been cancelled), no further emissions are delivered,
	// and the partial Result is returned with a nil error — its Matches
	// (and Triangles) count the emissions actually delivered, which are
	// a prefix of the full stream, and its Stats report whatever I/O had
	// accumulated when the producer wound down (like a cancelled run,
	// this tail is scheduling-dependent for the parallel algorithms).
	// Queries that finish under the limit are unaffected. Applies to the
	// callback and iterator forms alike.
	Limit uint64
	// Result, when non-nil, receives the query's Result when the run
	// finishes — the way the iterator forms report statistics. The
	// callback forms also return it directly.
	Result *Result
}

// Triangle is one emitted triangle in the caller's vertex ids, sorted so
// that A < B < C.
type Triangle struct{ A, B, C uint32 }

// Result summarizes an enumeration run.
type Result struct {
	// Triangles is the number of triangles emitted (Triangles queries).
	Triangles uint64
	// Matches is the number of emitted matches of any query kind:
	// triangles, k-cliques, or pattern embeddings modulo Aut(H).
	Matches uint64
	// Vertices and Edges describe the graph after deduplication, as of
	// the generation the query ran on.
	Vertices int
	Edges    int64
	// Stats covers the enumeration proper (canonicalization excluded).
	// Native runs (Options.Native, Query.Mode) compile the accounting out
	// of the hot path and report a zero Stats.
	Stats IOStats
	// CanonIOs is the one-time cost of producing the canonical image the
	// query ran on: the O(sort(E)) Build canonicalization (Section 1.3)
	// plus the delta merges of any Updates installed before the query's
	// generation. A Graph handle pays these costs once; every query of a
	// generation reports that generation's value.
	CanonIOs uint64
	// Colors, HighDegVertices, Subproblems and X expose algorithm
	// internals for experiments; see trienum.Info.
	Colors          int
	HighDegVertices int
	Subproblems     int
	X               uint64
	// MaxSubproblem is the largest color-tuple subproblem (in edges)
	// actually loaded by a Cliques or Match query, to compare against the
	// O(k²·M) expectation of Section 6.
	MaxSubproblem int64
	// Workers is the resolved worker cap of the run: Query.Workers, or
	// else Options.Workers, after defaulting; 1 for the sequential
	// baselines. The engine engages at most one worker per subproblem, so
	// fewer workers (len of WorkerStats) may actually run on small inputs.
	Workers int
	// WorkerStats breaks the parallel phases down per worker. Which
	// worker solved which subproblem depends on scheduling, so individual
	// entries vary run to run — their length may too: the engine engages
	// at most one worker per task, so small inputs produce fewer entries
	// than Workers. Only the aggregate is deterministic: the entry-wise
	// sum is invariant across runs and worker counts, and is already
	// included in Stats. Native runs report a nil WorkerStats.
	WorkerStats []IOStats
}

func (g *Graph) resolveWorkers(q Query) int {
	if q.Workers > 0 {
		return q.Workers
	}
	return g.opts.workers()
}

// resolveNative applies the Query.Mode override to the handle's default
// execution mode.
func (g *Graph) resolveNative(q Query) bool {
	switch q.Mode {
	case ModeNative:
		return true
	case ModeSimulated:
		return false
	}
	return g.opts.Native
}

// limiter implements Query.Limit: it counts delivered emissions,
// cancels the producer when the limit is reached, and suppresses the
// stragglers the producer emits while winding down.
type limiter struct {
	limit  uint64
	count  uint64
	cancel context.CancelFunc
}

// newLimiter returns the limit state (nil when the query is unlimited)
// and the context the producer should run under.
func newLimiter(ctx context.Context, q Query) (*limiter, context.Context, context.CancelFunc) {
	if q.Limit == 0 {
		return nil, ctx, func() {}
	}
	qctx, cancel := cancelableCtx(ctx)
	return &limiter{limit: q.Limit, cancel: cancel}, qctx, cancel
}

// admit reports whether the next emission may be delivered, counting it
// and cancelling the producer once the limit is reached.
func (l *limiter) admit() bool {
	if l == nil {
		return true
	}
	if l.count >= l.limit {
		return false
	}
	l.count++
	if l.count == l.limit {
		l.cancel()
	}
	return true
}

// finish translates the producer's wind-down into the limit contract:
// the delivered-emission count replaces the producer's internal tally
// (which may have raced past the limit), and when the limit was reached
// and the only error is the limiter's own cancellation (not the
// caller's), the query stopped cleanly and the error is dropped.
func (l *limiter) finish(ctx context.Context, res *Result, err error) error {
	if l == nil {
		return err
	}
	res.Matches = l.count
	if l.count >= l.limit && errors.Is(err, context.Canceled) && ctxutil.Err(ctx) == nil {
		return nil
	}
	return err
}

// TrianglesFunc enumerates every triangle of the graph with the
// configured algorithm, calling emit exactly once per triangle from the
// calling goroutine. Vertices carry the input's ids, sorted a < b < c; a
// nil emit counts only. Cancellation through ctx is cooperative — the
// engine behind CacheAware, CacheOblivious, and Deterministic checks
// between subproblems and sort runs, drains its worker pool, and returns
// ctx.Err(); the baselines check at their pass and chunk boundaries. The
// triangles emitted before a cancellation are a prefix of the full
// stream, and the Result returned alongside the error carries the partial
// counts and the statistics accumulated so far. ctx may be nil.
//
// The query runs on its own session over the generation that is current
// when it starts, so it may be issued concurrently with any other queries
// — and with Update — on the same Graph; emit may itself issue follow-up
// queries against the handle (but must not Close it — Close waits for the
// query emit is running under).
func (g *Graph) TrianglesFunc(ctx context.Context, q Query, emit func(a, b, c uint32)) (Result, error) {
	native := g.resolveNative(q)
	s, err := g.acquire(native)
	if err != nil {
		return Result{}, err
	}
	defer s.close()

	lim, qctx, stop := newLimiter(ctx, q)
	defer stop()
	ord := newOrderedTuples(q, 3)
	if ord != nil {
		// The canonical order is unknown until the enumeration is
		// complete, so an ordered producer always runs to completion:
		// the limit applies at delivery, below, not to the producer.
		qctx = ctx
	}
	res := s.baseResult()
	workers := g.resolveWorkers(q)
	exec := trienum.Exec{Workers: workers, Ctx: qctx}
	wrapped := func(a, b, c uint32) {
		if ord != nil {
			t := graph.MakeTriple(s.cg.RankToID[a], s.cg.RankToID[b], s.cg.RankToID[c])
			ord.add(t.V1, t.V2, t.V3)
			return
		}
		if !lim.admit() {
			return
		}
		if emit != nil {
			t := graph.MakeTriple(s.cg.RankToID[a], s.cg.RankToID[b], s.cg.RankToID[c])
			emit(t.V1, t.V2, t.V3)
		}
	}

	var info trienum.Info
	var workerStats []extmem.Stats
	switch q.Algorithm {
	case CacheAware:
		info, workerStats, err = trienum.CacheAwareParallel(s.sp, s.cg, q.Seed, exec, wrapped)
		res.Workers = workers
	case CacheOblivious:
		info, workerStats, err = trienum.ObliviousParallel(s.sp, s.cg, q.Seed, exec, wrapped)
		res.Workers = workers
	case Deterministic:
		info, workerStats, err = trienum.DeterministicParallel(s.sp, s.cg, q.FamilySize, exec, wrapped)
		if err == nil {
			res.Workers = workers
		}
	case HuTaoChung:
		info, err = trienum.HuTaoChung(qctx, s.sp, s.cg, wrapped)
	case BlockNestedLoop:
		info, err = baseline.BlockNestedLoop(qctx, s.sp, s.cg, wrapped)
	case EdgeIterator:
		info, err = baseline.EdgeIterator(qctx, s.sp, s.cg, wrapped)
	case SortMerge:
		info, err = trienum.Dementiev(qctx, s.sp, s.cg, wrapped)
	default:
		return res, fmt.Errorf("repro: unknown algorithm %v", q.Algorithm)
	}
	if err == nil {
		// Count the final write-backs into the run's statistics; a
		// cancelled run reports its statistics as accumulated, unflushed.
		s.sp.Flush()
	}
	st := s.sp.Stats()
	if native {
		// Native execution compiles the accounting out: Stats stays zero
		// and WorkerStats nil, per the Result contract.
		workerStats = nil
	}
	for _, w := range workerStats {
		st.Add(w)
		res.WorkerStats = append(res.WorkerStats, toIOStats(w))
	}
	res.Stats = toIOStats(st)
	res.Triangles = info.Triangles
	res.Matches = info.Triangles
	res.Colors = info.Colors
	res.HighDegVertices = info.HighDegVertices
	res.Subproblems = info.Subproblems
	res.X = info.X
	if ord != nil && err == nil {
		ord.deliver(lim, func(vs []uint32) {
			if emit != nil {
				emit(vs[0], vs[1], vs[2])
			}
		})
	}
	err = lim.finish(ctx, &res, err)
	if lim != nil {
		res.Triangles = res.Matches
		if err == nil && q.Algorithm == Deterministic {
			// A clean limit stop is a success: report the real worker
			// cap for Deterministic too, whose normal path only sets it
			// after an error-free run.
			res.Workers = workers
		}
	}
	deliverResult(q, res)
	return res, err
}

// Triangles returns the query as a Go 1.23 range-over-func iterator:
//
//	for t, err := range g.Triangles(ctx, repro.Query{}) {
//		if err != nil { ... }
//		use(t)
//	}
//
// A non-nil error is yielded at most once, as the final element.
// Breaking out of the loop cancels the underlying query and drains its
// workers before the iterator returns. Set Query.Result to receive the
// per-query statistics, and Query.Limit to end the iteration cleanly
// after a fixed number of elements.
//
// The loop body runs on the iterating goroutine while the query's private
// session is live: it may issue further queries against the same handle
// (they run on sessions of their own), but must not Close it.
func (g *Graph) Triangles(ctx context.Context, q Query) iter.Seq2[Triangle, error] {
	return func(yield func(Triangle, error) bool) {
		qctx, cancel := cancelableCtx(ctx)
		defer cancel()
		stopped := false
		_, err := g.TrianglesFunc(qctx, q, func(a, b, c uint32) {
			if stopped {
				return
			}
			if !yield(Triangle{a, b, c}, nil) {
				stopped = true
				cancel()
			}
		})
		if err != nil && !stopped {
			yield(Triangle{}, err)
		}
	}
}

// CliquesFunc enumerates every k-clique (k >= 3) of the graph with the
// Section 6 color-coding decomposition, in O(E^(k/2)/(M^(k/2−1)·B))
// expected I/Os. emit receives each clique exactly once as ascending
// vertex ids of the caller's id space; the slice is reused between calls
// — copy it to retain. Emission order follows the decomposition, not any
// global order. ctx is checked between color-tuple subproblems; it may
// be nil. A nil emit counts only. Like every query, it runs on its own
// session and may overlap other queries of the handle.
func (g *Graph) CliquesFunc(ctx context.Context, k int, q Query, emit func(clique []uint32)) (Result, error) {
	return g.subgraphQuery(ctx, q, emit, func(qctx context.Context, s *session, wrapped subgraph.EmitK) (subgraph.Info, error) {
		return subgraph.KClique(qctx, s.sp, s.cg, k, q.Seed, wrapped)
	}, true, k, nil)
}

// Cliques is CliquesFunc as a range-over-func iterator; the iteration
// contract matches Triangles, and the yielded slice is reused between
// elements — copy it to retain.
func (g *Graph) Cliques(ctx context.Context, k int, q Query) iter.Seq2[[]uint32, error] {
	return g.subgraphSeq(ctx, func(qctx context.Context, emit func([]uint32)) error {
		_, err := g.CliquesFunc(qctx, k, q, emit)
		return err
	})
}

// MatchFunc enumerates every copy of the pattern in the graph — each set
// of vertices carrying an H-isomorphic (not necessarily induced)
// subgraph, exactly once per embedding modulo Aut(H) — with the Section 6
// color-coding decomposition generalized to arbitrary connected patterns
// on at most 8 vertices (Silvestri 2014). emit receives the embedding:
// position i of the pattern maps to vertex assign[i] of the caller's id
// space. The slice is reused between calls — copy it to retain. ctx is
// checked between color-tuple subproblems; it may be nil. A nil emit
// counts only.
func (g *Graph) MatchFunc(ctx context.Context, p *Pattern, q Query, emit func(assign []uint32)) (Result, error) {
	if p == nil || p.p == nil {
		return Result{}, fmt.Errorf("repro: Match requires a non-nil pattern")
	}
	return g.subgraphQuery(ctx, q, emit, func(qctx context.Context, s *session, wrapped subgraph.EmitK) (subgraph.Info, error) {
		return p.p.Enumerate(qctx, s.sp, s.cg, q.Seed, wrapped)
	}, false, p.K(), p.Normalize)
}

// Match is MatchFunc as a range-over-func iterator; the iteration
// contract matches Triangles, and the yielded slice is reused between
// elements — copy it to retain.
func (g *Graph) Match(ctx context.Context, p *Pattern, q Query) iter.Seq2[[]uint32, error] {
	return g.subgraphSeq(ctx, func(qctx context.Context, emit func([]uint32)) error {
		_, err := g.MatchFunc(qctx, p, q, emit)
		return err
	})
}

// subgraphQuery is the shared engine room of Cliques and Match: open a
// session, run the Section 6 enumerator with ranks mapped back to input
// ids, collect the worker-invariant statistics, close the session.
// sortIDs orders each emitted vertex set ascending (cliques are unordered
// sets; pattern embeddings are positional and must not be reordered).
// k is the emitted tuple size and normalize the Query.Ordered orbit
// normalization (nil when the plain emission is already canonical).
func (g *Graph) subgraphQuery(ctx context.Context, q Query, emit func([]uint32),
	run func(qctx context.Context, s *session, wrapped subgraph.EmitK) (subgraph.Info, error), sortIDs bool,
	k int, normalize func([]uint32)) (Result, error) {
	s, err := g.acquire(g.resolveNative(q))
	if err != nil {
		return Result{}, err
	}
	defer s.close()

	lim, qctx, stop := newLimiter(ctx, q)
	defer stop()
	ord := newOrderedTuples(q, k)
	if ord != nil {
		// As in TrianglesFunc: an ordered producer runs to completion,
		// the limit applies at delivery.
		qctx = ctx
	}
	res := s.baseResult()
	var mapped []uint32
	wrapped := func(vs []uint32) {
		if ord == nil {
			if !lim.admit() {
				return
			}
			if emit == nil {
				return
			}
		}
		if cap(mapped) < len(vs) {
			mapped = make([]uint32, len(vs))
		}
		mapped = mapped[:len(vs)]
		for i, v := range vs {
			mapped[i] = s.cg.RankToID[v]
		}
		if sortIDs {
			sort.Slice(mapped, func(i, j int) bool { return mapped[i] < mapped[j] })
		}
		if ord != nil {
			if normalize != nil {
				normalize(mapped)
			}
			ord.add(mapped...)
			return
		}
		emit(mapped)
	}
	info, err := run(qctx, s, wrapped)
	res.Matches = info.Cliques
	res.Colors = info.Colors
	res.Subproblems = info.Subproblems
	res.MaxSubproblem = info.MaxSubproblem
	if err == nil {
		// As in TrianglesFunc: flush on success, report a cancelled run's
		// statistics as accumulated.
		s.sp.Flush()
	}
	res.Stats = toIOStats(s.sp.Stats())
	if ord != nil && err == nil {
		ord.deliver(lim, func(vs []uint32) {
			if emit != nil {
				emit(vs)
			}
		})
	}
	err = lim.finish(ctx, &res, err)
	deliverResult(q, res)
	return res, err
}

// orderedTuples buffers a Query.Ordered run's emissions — flattened ids,
// k per emission — for sorted delivery. Created nil for plain queries,
// so the hot path stays a nil check.
type orderedTuples struct {
	k    int
	flat []uint32
}

func newOrderedTuples(q Query, k int) *orderedTuples {
	if !q.Ordered {
		return nil
	}
	return &orderedTuples{k: k}
}

func (o *orderedTuples) add(vs ...uint32) { o.flat = append(o.flat, vs...) }

// deliver sorts the buffered tuples into the canonical lexicographic
// order and hands them to emit through the limiter, from the calling
// goroutine.
func (o *orderedTuples) deliver(lim *limiter, emit func([]uint32)) {
	cluster.SortTuples(o.flat, o.k)
	for i := 0; i+o.k <= len(o.flat); i += o.k {
		if !lim.admit() {
			return
		}
		emit(o.flat[i : i+o.k])
	}
}

// subgraphSeq adapts a callback-form subgraph query to an iterator,
// translating an early break into a cancellation of the underlying run.
func (g *Graph) subgraphSeq(ctx context.Context, run func(qctx context.Context, emit func([]uint32)) error) iter.Seq2[[]uint32, error] {
	return func(yield func([]uint32, error) bool) {
		qctx, cancel := cancelableCtx(ctx)
		defer cancel()
		stopped := false
		err := run(qctx, func(vs []uint32) {
			if stopped {
				return
			}
			if !yield(vs, nil) {
				stopped = true
				cancel()
			}
		})
		if err != nil && !stopped {
			yield(nil, err)
		}
	}
}

// baseResult seeds a Result with the session's generation metadata, so
// concurrent updates never leak into a running query's report.
func (s *session) baseResult() Result {
	return Result{
		Vertices: s.gen.numVertices,
		Edges:    s.gen.edgesLen,
		CanonIOs: s.gen.canonIOs,
		Workers:  1,
	}
}

func deliverResult(q Query, res Result) {
	if q.Result != nil {
		*q.Result = res
	}
}

// cancelableCtx derives a cancellable context from ctx (which may be
// nil), for iterator adapters that must stop the producer on break.
func cancelableCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithCancel(ctx)
}
