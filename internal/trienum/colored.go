package trienum

import (
	"cmp"
	"context"
	"iter"
	"slices"

	"repro/internal/ctxutil"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// Rule is the emptiness rule of the color-coded step: the color-pair
// buckets a tuple (τ0, …, τ(K-1)) of colors needs non-empty to hold a
// match. Each pair (i, j) of Pairs, i < j, needs bucket (τi, τj) or, with
// Either, one of (τi, τj) and (τj, τi). A k-clique needs every pair in its
// own orientation (CliqueRule), as an edge is bucketed under its lower
// endpoint's color first and a clique's vertices ascend with their
// positions; a pattern needs each edge, whose endpoints come in either
// order.
type Rule struct {
	K      int
	Pairs  [][2]int
	Either bool
}

// CliqueRule is the rule of k-cliques, and of triangles at k = 3.
func CliqueRule(k int) Rule {
	r := Rule{K: k}
	for j := 1; j < k; j++ {
		for i := range j {
			r.Pairs = append(r.Pairs, [2]int{i, j})
		}
	}
	return r
}

// Admits reports whether a tuple, or a prefix of one, can hold a match:
// whether the pairs within it hold over the color-pair buckets at off,
// bucket (a,b) at [off[a·c+b], off[a·c+b+1]). It is the one emptiness
// test: the color-coded step lists only the tuples it admits, and the
// tuple solvers return early on the others.
func (r Rule) Admits(off []int64, c int, tuple []int) bool {
	full := func(a, b int) bool { return off[a*c+b+1] > off[a*c+b] }
	for _, p := range r.Pairs {
		i, j := p[0], p[1]
		if j < len(tuple) && !full(tuple[i], tuple[j]) && !(r.Either && full(tuple[j], tuple[i])) {
			return false
		}
	}
	return true
}

// tuples yields the tuples rule admits over the buckets at off in
// lexicographic order, from its tuple u on (0 the first), in one slice it
// reuses: it holds only that tuple, and skips a prefix the rule fails
// whole.
func tuples(rule Rule, off []int64, c, u int) iter.Seq[[]int] {
	return func(yield func([]int) bool) {
		t, skip := make([]int, rule.K), u
		var place func(j int) bool // places t[j:]; false once yield stops
		place = func(j int) bool {
			if j == len(t) {
				skip--
				return skip >= 0 || yield(t)
			}
			for t[j] = 0; t[j] < c; t[j]++ {
				if rule.Admits(off, c, t[:j+1]) && !place(j+1) {
					return false
				}
			}
			return true
		}
		place(0)
	}
}

// ColorCoded is the one color-coded step of Sections 2, 4 and 6, run by
// the triangle engines at k = 3 and by package subgraph at its k. It
// distributes edges, in canonical order, into the c² color-pair buckets
// under colorOf (graph.ColorBuckets, whose I/Os do not depend on the
// worker count), freezes them, and lists the tuples rule admits in
// lexicographic order, once to count them and once to dispatch them:
// listed tuple i is unit base+i, those before x.From are skipped, and
// each is one RunTuples task, made on the pool's dispatching goroutine,
// so nothing is held per tuple. solve(shard, edges, off, tuple, r, out)
// solves a tuple into r on a cold shard, bucket (a,b) of edges at
// [off[a·c+b], off[a·c+b+1]), and done receives r in tuple order on the
// calling goroutine; the first tuple that fails ends the run. It returns
// the offsets (nil when edges is empty), the number of tuples listed, the
// per-worker stats and the error: a tuple's, x.Ctx's or ErrFrom.
func ColorCoded[R any](x Exec, sp *extmem.Space, edges extmem.Extent, colorOf func(uint32) uint32, c int, rule Rule, base int,
	solve func(shard *extmem.Space, edges extmem.Extent, off []int64, tuple []int, r *R, out *Sink) error,
	emit func(t []uint32), done func(R)) (off []int64, n int, ws []extmem.Stats, err error) {
	if edges.Len() == 0 {
		return nil, 0, nil, cmp.Or(x.CheckFrom(base), ctxutil.Err(x.Ctx))
	}
	mark := sp.Mark()
	defer sp.Release(mark)
	// The c²+1 bucket offsets are native words of internal memory, leased
	// by Distribute while it builds them and by every shard that consults
	// them — within budget under the paper's assumption c² = E/M <= M,
	// i.e. M >= sqrt(E).
	buckets, off := graph.ColorBuckets(sp, edges, colorOf, c)
	if err := ctxutil.Err(x.Ctx); err != nil {
		return off, 0, nil, err
	}
	shared := sp.Snapshot(buckets)
	for range tuples(rule, off, c, 0) {
		n++
	}
	if err := x.CheckFrom(base + n); err != nil {
		return off, n, nil, err
	}
	x.From = max(base, x.From)
	ctx, cancel := context.WithCancel(cmp.Or(x.Ctx, context.Background()))
	defer cancel()
	x.Ctx = ctx
	type result struct {
		r   R
		err error
	}
	var failed error
	next, stop := iter.Pull(tuples(rule, off, c, x.From-base))
	defer stop()
	E := buckets.Len()
	ws, err = RunTuples(x, sp.Config(), shared, rule.K, base+n-x.From, func(int) func(*extmem.Space, *Sink) result {
		t, _ := next()
		tuple := slices.Clone(t)
		return func(shard *extmem.Space, out *Sink) (r result) {
			// The shard consults the same c²+1-word bucket index the
			// coordinator built; charge it the same internal memory.
			lease := shard.LeaseAtMost(c*c + 1)
			defer lease.Release()
			r.err = solve(shard, shard.ExtentAt(0, E), off, tuple, &r.r, out)
			return r
		}
	}, emit, func(r result) {
		done(r.r)
		if r.err != nil && failed == nil {
			failed = r.err
			cancel() // the pool delivers no later tuple's emissions
		}
	})
	return off, n, ws, cmp.Or(failed, err) // a failure, not the cancellation it caused
}
