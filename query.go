package repro

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/ctxutil"
	"repro/internal/extmem"
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
	// (0 = inherit). CacheAware, CacheOblivious and Deterministic run
	// parallel phases, and Cliques and Match solve their color tuples on
	// the same worker pool; emission and aggregated statistics are
	// identical at every worker count. The sequential baselines ignore
	// it.
	Workers int
	// Mode selects the machine the query runs on, and is the only switch
	// between the two: ModeSimulated (the zero value) runs the simulated
	// machine with exact block-I/O accounting, ModeNative runs the same
	// decomposition natively. The emission stream is byte-identical
	// either way; a native run reports zero Stats and nil WorkerStats. See
	// ModeNative.
	Mode ExecMode
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
	// emissions from From: the producer is cancelled cooperatively (as
	// if the context had been cancelled), no further emissions are
	// delivered, and the partial Result is returned with a nil error —
	// the emissions delivered are the stream's next Limit after From,
	// its Matches (and Triangles) give the position reached, From.Emitted
	// plus the emissions delivered, and its Stats report whatever I/O had
	// accumulated when the producer wound down (like a cancelled run,
	// this tail is scheduling-dependent for the parallel algorithms).
	// Queries that finish under the limit are unaffected. Applies to the
	// callback and iterator forms alike.
	Limit uint64
	// From resumes the stream at a position an earlier run of the same
	// query on the same generation reported as its Result.Next: the run
	// delivers the stream's emissions from From.Emitted on, so pages
	// read with Limit and From = the previous page's Next concatenate to
	// the unpaged stream. CacheAware, CacheOblivious and Deterministic
	// triangle queries in engine order start at From's decomposition
	// unit, so a resumed page costs its set-up plus the units from its
	// position, and its Stats, and CacheOblivious's Subproblems and
	// HighDegVertices, cover only that work; every other query replays
	// its producer from the start and drops the first From.Emitted
	// emissions. A position that cannot belong to the query fails with
	// ErrInvalidPosition before any emission; one built by hand can only
	// misplace this query's own stream. The zero Position is the
	// stream's start.
	From Position
	// Result, when non-nil, receives the query's Result when the run
	// finishes — the way the iterator forms report statistics. The
	// callback forms also return it directly.
	Result *Result
}

// Triangle is one emitted triangle in the caller's vertex ids, sorted so
// that A < B < C.
type Triangle struct{ A, B, C uint32 }

// Position is a point in a query's deterministic emission stream, as
// Result.Next reports it and Query.From resumes from it. Emitted is the
// number of emissions before the point. Unit is the decomposition unit
// that holds the last of them — a Lemma 1 pass or a color triple of
// CacheAware and Deterministic, a planner task of CacheOblivious, and 0
// for every other query — and UnitStart is the number of emissions
// before that unit's first one. Units are a pure function of the image
// and the query, invariant in Workers and Mode, so a Position is valid
// for every run of the same query on the same generation.
type Position struct {
	Emitted   uint64
	Unit      int
	UnitStart uint64
}

// ErrInvalidPosition reports a Query.From that cannot be a position of
// the query's stream: a unit starting after the position, a negative
// unit or a unit 0 not starting at emission 0, a unit other than 0 on an
// ordered stream or on a query without units, or a unit past the
// query's last.
var ErrInvalidPosition = errors.New("repro: invalid query position")

// check reports whether p can be a position of a query whose engine
// numbers its units (units false: the query has one unit, 0).
func (p Position) check(units bool) error {
	var why string
	switch {
	case p.UnitStart > p.Emitted:
		why = fmt.Sprintf("unit start %d is after position %d", p.UnitStart, p.Emitted)
	case p.Unit < 0:
		why = fmt.Sprintf("unit %d is negative", p.Unit)
	case p.Unit == 0 && p.UnitStart != 0:
		why = fmt.Sprintf("unit 0 starts at emission 0, not %d", p.UnitStart)
	case p.Unit > 0 && !units:
		why = fmt.Sprintf("unit %d on a query whose stream is one unit", p.Unit)
	default:
		return nil
	}
	return fmt.Errorf("%w: %s", ErrInvalidPosition, why)
}

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
	// Native runs (Query.Mode = ModeNative) compile the accounting out
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
	// else Options.Workers, after defaulting. CacheAware, CacheOblivious,
	// Deterministic, Cliques and Match report it whether or not the run
	// succeeds; the sequential baselines report 1. The engine engages at
	// most one worker per subproblem, so fewer workers (len of
	// WorkerStats) may actually run on small inputs.
	Workers int
	// Next is the stream position after the last emission delivered —
	// From when none was — for Query.From to resume at.
	Next Position
	// WorkerStats breaks the parallel phases down per worker: the Lemma 1
	// passes and color triples of a triangle query, the color tuples of a
	// Cliques or Match query. Which worker solved which subproblem
	// depends on scheduling, so individual entries vary run to run —
	// their length may too: the engine engages at most one worker per
	// task, so small inputs produce fewer entries than Workers. Only the
	// aggregate is deterministic: the entry-wise sum is invariant across
	// runs and worker counts, and is already included in Stats. Native
	// runs and the sequential baselines report a nil WorkerStats.
	WorkerStats []IOStats
}

func (g *Graph) resolveWorkers(q Query) int {
	if q.Workers > 0 {
		return q.Workers
	}
	return g.opts.workers()
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
// when the limit was reached and the only error is the limiter's own
// cancellation (not the caller's), the query stopped cleanly and the
// error is dropped.
func (l *limiter) finish(ctx context.Context, err error) error {
	if l != nil && l.count >= l.limit && errors.Is(err, context.Canceled) && ctxutil.Err(ctx) == nil {
		return nil
	}
	return err
}

// engine runs one query kind's enumeration on a session, under x's
// context, workers and first unit, passing each emission to emit as a
// tuple of ranks. It returns the Result fields the engine owns — Matches
// and the decomposition internals, plus Triangles and Workers for the
// triangle algorithms — and the per-worker statistics of its parallel
// phases.
type engine func(s *session, x trienum.Exec, emit subgraph.EmitK) (Result, []extmem.Stats, error)

// query is the one driver behind every query kind. It opens a session,
// runs the engine with each emitted tuple mapped back to input ids and
// canonicalized in place (canon may be nil), applies Query.From,
// Query.Limit and Query.Ordered to the tuples of size k, flushes, and
// assembles the Result. units says whether the engine numbers its
// decomposition units (trienum.Exec.From); a query whose engine does not
// is one unit and resumes by replay. emit may be nil to count only.
func (g *Graph) query(ctx context.Context, q Query, k int, units bool, canon func([]uint32), emit func([]uint32), run engine) (Result, error) {
	from := q.From
	if err := from.check(units && !q.Ordered); err != nil {
		return Result{}, err
	}
	native := q.Mode == ModeNative
	s, err := g.acquire(native)
	if err != nil {
		return Result{}, err
	}
	defer s.close()

	lim, qctx, stop := newLimiter(ctx, q)
	defer stop()
	ord := newOrderedTuples(q, k)
	if ord != nil {
		// The canonical order is unknown until the enumeration is
		// complete, so an ordered producer always runs to completion:
		// From and the limit apply at delivery, below, not to the
		// producer.
		qctx = ctx
	}
	// pos is the stream index after the engine's latest emission, and
	// unit and unitStart are that emission's unit and the unit's first
	// index. The engine starts at From's unit, whose first emission is
	// From.UnitStart; the emissions before From.Emitted are dropped.
	pos, unit, unitStart := from.UnitStart, from.Unit, from.UnitStart
	next := from
	x := trienum.Exec{Workers: g.resolveWorkers(q), Ctx: qctx, From: from.Unit, OnUnit: func(u int) {
		unit, unitStart = u, pos
	}}
	rankToID := s.cg.RankToID
	var ids []uint32 // grown by the first emission, never sized by k
	res, workerStats, err := run(s, x, func(ranks []uint32) {
		if ord == nil {
			if pos++; pos <= from.Emitted || !lim.admit() {
				return
			}
			// Stragglers past the limit never get here, so Next stays
			// at the last delivered emission.
			next = Position{Emitted: pos, Unit: unit, UnitStart: unitStart}
			if emit == nil {
				return
			}
		}
		ids = ids[:0]
		for _, r := range ranks {
			ids = append(ids, rankToID[r])
		}
		if canon != nil {
			canon(ids)
		}
		if ord != nil {
			ord.add(ids)
			return
		}
		emit(ids)
	})
	if errors.Is(err, trienum.ErrFrom) {
		err = fmt.Errorf("%w: unit %d is past the query's last", ErrInvalidPosition, from.Unit)
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
	// The session's generation, so concurrent updates never leak into a
	// running query's report.
	res.Vertices, res.Edges, res.CanonIOs = int(s.gen.meta.NumVertices), s.gen.meta.EdgesLen, s.gen.meta.CanonIOs
	res.Workers = max(res.Workers, 1) // sequential engines leave it zero
	if ord != nil && err == nil {
		next.Emitted += ord.deliver(from.Emitted, lim, emit)
	}
	res.Next = next
	if lim != nil || from != (Position{}) {
		// A limited or resumed run reports the position it reached, not
		// the engine's tallies, which count a resumed unit's dropped
		// prefix and may have raced past the limit. Only the triangle
		// engines tally Triangles, and they tally every emission, so a
		// nonzero tally marks a triangle query.
		res.Matches = next.Emitted
		if res.Triangles != 0 {
			res.Triangles = next.Emitted
		}
	}
	err = lim.finish(ctx, err)
	if q.Result != nil {
		*q.Result = res
	}
	return res, err
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
	var emitIDs func([]uint32)
	if emit != nil {
		emitIDs = func(t []uint32) { emit(t[0], t[1], t[2]) }
	}
	units := q.Algorithm == CacheAware || q.Algorithm == CacheOblivious || q.Algorithm == Deterministic
	return g.query(ctx, q, 3, units, slices.Sort[[]uint32], emitIDs, func(s *session, exec trienum.Exec, emit subgraph.EmitK) (Result, []extmem.Stats, error) {
		var t [3]uint32
		emit3 := func(a, b, c uint32) {
			t = [3]uint32{a, b, c}
			emit(t[:])
		}
		ctx := exec.Ctx
		var res Result
		var info trienum.Info
		var workerStats []extmem.Stats
		var err error
		switch q.Algorithm {
		case CacheAware:
			info, workerStats, err = trienum.CacheAwareParallel(s.sp, s.cg, q.Seed, exec, emit3)
			res.Workers = exec.Workers
		case CacheOblivious:
			info, workerStats, err = trienum.ObliviousParallel(s.sp, s.cg, q.Seed, exec, emit3)
			res.Workers = exec.Workers
		case Deterministic:
			info, workerStats, err = trienum.DeterministicParallel(s.sp, s.cg, exec, emit3)
			res.Workers = exec.Workers
		case HuTaoChung:
			info, err = trienum.HuTaoChung(ctx, s.sp, s.cg, emit3)
		case BlockNestedLoop:
			info, err = baseline.BlockNestedLoop(ctx, s.sp, s.cg, emit3)
		case EdgeIterator:
			info, err = baseline.EdgeIterator(ctx, s.sp, s.cg, emit3)
		case SortMerge:
			info, err = trienum.Dementiev(ctx, s.sp, s.cg, emit3)
		default:
			return res, nil, fmt.Errorf("repro: unknown algorithm %v", q.Algorithm)
		}
		res.Triangles = info.Triangles
		res.Matches = info.Triangles
		res.Colors = info.Colors
		res.HighDegVertices = info.HighDegVertices
		res.Subproblems = info.Subproblems
		res.X = info.X
		return res, workerStats, err
	})
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
	return seq(ctx, func(ctx context.Context, emit func(Triangle)) error {
		_, err := g.TrianglesFunc(ctx, q, func(a, b, c uint32) { emit(Triangle{a, b, c}) })
		return err
	})
}

// CliquesFunc enumerates every k-clique (k >= 3) of the graph with the
// Section 6 color-coding decomposition, in O(E^(k/2)/(M^(k/2−1)·B))
// expected I/Os. emit receives each clique exactly once as ascending
// vertex ids of the caller's id space, from the calling goroutine; the
// slice is reused between calls — copy it to retain. Emission order
// follows the decomposition, not any global order. The color tuples are
// solved on Query.Workers workers of the pool the triangle engines use,
// each on a cold cache, and replayed in tuple order, so the stream, Stats
// and the sum of WorkerStats are identical at every worker count. ctx is
// checked between color-tuple subproblems; it may be nil. A nil emit
// counts only. Like every query, it runs on its own session and may
// overlap other queries of the handle.
func (g *Graph) CliquesFunc(ctx context.Context, k int, q Query, emit func(clique []uint32)) (Result, error) {
	return g.query(ctx, q, k, false, slices.Sort[[]uint32], emit, func(s *session, x trienum.Exec, emit subgraph.EmitK) (Result, []extmem.Stats, error) {
		info, workerStats, err := subgraph.KCliqueParallel(s.sp, s.cg, k, q.Seed, x, emit)
		return subgraphResult(info, x), workerStats, err
	})
}

// Cliques is CliquesFunc as a range-over-func iterator; the iteration
// contract matches Triangles, and the yielded slice is reused between
// elements — copy it to retain.
func (g *Graph) Cliques(ctx context.Context, k int, q Query) iter.Seq2[[]uint32, error] {
	return seq(ctx, func(ctx context.Context, emit func([]uint32)) error {
		_, err := g.CliquesFunc(ctx, k, q, emit)
		return err
	})
}

// MatchFunc enumerates every copy of the pattern in the graph — each set
// of vertices carrying an H-isomorphic (not necessarily induced)
// subgraph, exactly once per embedding modulo Aut(H) — with the Section 6
// color-coding decomposition generalized to arbitrary connected patterns
// on at most 8 vertices (Silvestri 2014). emit receives the embedding:
// position i of the pattern maps to vertex assign[i] of the caller's id
// space, from the calling goroutine. The slice is reused between calls —
// copy it to retain. The color tuples run on Query.Workers workers as in
// CliquesFunc, with the same determinism. ctx is checked between
// color-tuple subproblems; it may be nil. A nil emit counts only.
func (g *Graph) MatchFunc(ctx context.Context, p *Pattern, q Query, emit func(assign []uint32)) (Result, error) {
	if p == nil || p.p == nil {
		return Result{}, fmt.Errorf("repro: Match requires a non-nil pattern")
	}
	// Embeddings are positional, so only the ordered stream rewrites them,
	// to their orbit representative.
	var canon func([]uint32)
	if q.Ordered {
		canon = p.Normalize
	}
	return g.query(ctx, q, p.K(), false, canon, emit, func(s *session, x trienum.Exec, emit subgraph.EmitK) (Result, []extmem.Stats, error) {
		info, workerStats, err := p.p.EnumerateParallel(s.sp, s.cg, q.Seed, x, emit)
		return subgraphResult(info, x), workerStats, err
	})
}

// Match is MatchFunc as a range-over-func iterator; the iteration
// contract matches Triangles, and the yielded slice is reused between
// elements — copy it to retain.
func (g *Graph) Match(ctx context.Context, p *Pattern, q Query) iter.Seq2[[]uint32, error] {
	return seq(ctx, func(ctx context.Context, emit func([]uint32)) error {
		_, err := g.MatchFunc(ctx, p, q, emit)
		return err
	})
}

// subgraphResult is the part of the Result a Section 6 engine run under
// x owns.
func subgraphResult(info subgraph.Info, x trienum.Exec) Result {
	return Result{
		Matches:       info.Cliques,
		Colors:        info.Colors,
		Subproblems:   info.Subproblems,
		MaxSubproblem: info.MaxSubproblem,
		Workers:       x.Workers,
	}
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

func (o *orderedTuples) add(vs []uint32) { o.flat = append(o.flat, vs...) }

// deliver sorts the buffered tuples into the canonical lexicographic
// order and hands those after the first skip to emit (nil to count only)
// through the limiter, from the calling goroutine. It returns the number
// delivered.
func (o *orderedTuples) deliver(skip uint64, lim *limiter, emit func([]uint32)) uint64 {
	cluster.SortTuples(o.flat, o.k)
	n := uint64(len(o.flat) / o.k)
	var delivered uint64
	for i := min(skip, n); i < n && lim.admit(); i++ {
		if emit != nil {
			emit(o.flat[i*uint64(o.k) : (i+1)*uint64(o.k)])
		}
		delivered++
	}
	return delivered
}

// seq adapts a callback-form query to an iterator, translating an early
// break into a cancellation of the underlying run.
func seq[T any](ctx context.Context, run func(ctx context.Context, emit func(T)) error) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		qctx, cancel := cancelableCtx(ctx)
		defer cancel()
		stopped := false
		err := run(qctx, func(v T) {
			if stopped {
				return
			}
			if !yield(v, nil) {
				stopped = true
				cancel()
			}
		})
		if err != nil && !stopped {
			var zero T
			yield(zero, err)
		}
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
