package trienum

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/ctxutil"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
)

// The parallel cache-oblivious engine. The Section 3 recursion decomposes
// into independent units because its randomness is path-split (see the
// oblivious struct): a node's Poly4 draw and its children's Rands are a
// pure function of the node's position in the tree, and every emission
// path flows through full-word-tiebreak sorts, so a subtree's triangle
// stream is a pure function of its (edge set, color vector, depth, hash
// chain, node Rand) — not of the order its parent happened to leave the
// edges in, nor of anything its siblings do.
//
// The coordinator therefore runs the recursion itself — oblivious.recurse
// from the root, on a native Space, with an obPlanner attached — and each
// node it reaches either stays inline or becomes a task. An inline node
// does its own bookkeeping, high-degree census, coloring refinement and
// eight partitions on the coordinator, uncharged. Two kinds of tasks are
// appended, in exactly the sequential emission order:
//
//   - a Lemma 1 task per local high-degree vertex of an inline node,
//     running against the node's pre-pass segment with the wedges through
//     the previously processed vertices skipped — equivalent, triangle for
//     triangle and in the same order, to the sequential pass on the
//     reduced segment, because removing an edge {a,b} with a or b among
//     the processed vertices removes exactly the triangles the skip drops,
//     and a sorted stream restricted to a subset keeps its order;
//   - a subtree task per node at the split frontier, running the
//     recursion body on a private copy of the node's segment and
//     annotations.
//
// The pool runner (RunTuples) replays completed tasks strictly in task
// order, so the overall stream is byte-identical to one depth-first
// recursion from the root at every worker count. Each task is one
// decomposition unit (Exec.From): a run from unit u plans every task but
// keeps, and copies into the arena, only tasks u, u+1, and so on. As
// with the cache-aware engine, every task is charged a cold private
// cache, and the coordinator is charged one scan (the root copy-in)
// rather than a per-level repartition of the whole segment.

const (
	// obSplitDepth is the depth of the split frontier: nodes at this depth
	// (up to 64 of them) become subtree tasks instead of being expanded
	// inline by the coordinator. Two levels keep the coordinator's native
	// footprint at O(E) words while yielding enough tasks to feed and
	// balance any practical worker count — subtree sizes concentrate
	// around E/16 (Lemma 4), and skewed nodes still split because the
	// engine dispatches tasks dynamically.
	obSplitDepth = 2
	// obSplitMinEdges stops inline expansion early for small nodes: below
	// this size a subtree is cheaper to solve whole than to keep
	// splitting, and the resulting tasks are plentiful enough already.
	obSplitMinEdges = 1024
)

// ObliviousParallel enumerates all triangles of g with the cache-oblivious
// randomized algorithm of Section 3, using O(E^1.5/(sqrt(M)·B)) expected
// I/Os and O(E) words of disk without ever consulting M or B.
//
// It solves the (1,1,1)-enumeration problem under the constant coloring by
// recursion: each node removes local high-degree vertices (degree >= E/8)
// via Lemma 1, refines the coloring with a fresh 4-wise independent random
// bit per vertex, and recurses into the eight color-vector subproblems,
// each repartitioned in place so that total disk stays O(E). Leaves are
// solved with Dementiev's sort-merge algorithm.
//
// The recursion's local high-degree passes and its depth-obSplitDepth
// subtrees run as tasks on exec.Workers shards of the worker-pool engine;
// Workers=1 is the sequential run. The triangle stream and the summed I/O
// stats are identical at every worker count and deterministic in seed.
// The second return value is the per-worker I/O breakdown. A non-nil error
// is exec.Ctx's cancellation error, checked at every inline-expanded node
// and between tasks (the triangles emitted before it are a prefix of the
// full stream), or ErrFrom. The units of exec.From and exec.OnUnit are
// the planner's tasks, in order.
func ObliviousParallel(sp *extmem.Space, g graph.Canonical, seed uint64, exec Exec, emit graph.Emit) (Info, []extmem.Stats, error) {
	var info Info
	emit = countingEmit(&info, emit)
	E := g.Edges.Len()
	ctx := exec.Ctx
	if err := ctxutil.Err(ctx); err != nil || E == 0 {
		return info, nil, cmp.Or(err, exec.CheckFrom(0))
	}
	cfg := sp.Config()
	mark := sp.Mark()
	defer sp.Release(mark)

	// The root copy-in is the coordinator's one charged transfer; the
	// recursion above the split frontier runs on a native copy of it.
	work := sp.Alloc(E)
	g.Edges.CopyTo(work)
	native := cfg
	native.Native = true
	p := &obPlanner{ctx: ctx, from: exec.From}
	o := &oblivious{sp: extmem.NewSpace(native), info: &info, plan: p}
	o.alloc(E)
	o.work.Store(sp.Snapshot(work)[:E])
	o.ann.Fill(1<<32 | 1) // root coloring ξ0 ≡ 1 on both endpoints
	for d := int64(1); d < E; d *= 4 {
		o.maxDepth++
	}
	o.recurse(0, E, [3]uint32{1, 1, 1}, 0, hashing.NewRand(seed))
	if p.err == nil {
		p.err = exec.CheckFrom(p.units)
	}
	if p.err != nil {
		return info, nil, p.err
	}
	for len(p.arena)%cfg.B != 0 {
		p.arena = append(p.arena, 0) // shard cores are whole blocks
	}
	stats, err := RunTuples(exec, cfg, p.arena, 3, len(p.tasks), func(i int) func(*extmem.Space, *Sink) struct{} {
		return func(shard *extmem.Space, out *Sink) struct{} {
			p.tasks[i](shard, out.Triangle)
			return struct{}{}
		}
	}, triangles(emit), nil)
	for _, u := range p.infos {
		mergeObInfo(&info, u)
	}
	return info, stats, err
}

// alloc gives the recursion its four n-word extents on o.sp; the caller
// fills work and ann.
func (o *oblivious) alloc(n int64) {
	o.work, o.ann = o.sp.Alloc(n), o.sp.Alloc(n)
	o.scratchE, o.scratchA = o.sp.Alloc(n), o.sp.Alloc(n)
}

// obPlanner collects the coordinator's tasks in sequential emission order
// and lays their inputs out in one arena, the shared region the worker
// shards read. units counts the tasks planned; those before from are
// counted but neither kept nor given arena space. Each subtree task
// records its own recursion bookkeeping in infos (the slice is fully
// grown before RunTuples starts, so the per-index writes race with
// nothing).
type obPlanner struct {
	ctx   context.Context
	from  int
	units int
	arena []extmem.Word
	tasks []func(shard *extmem.Space, emit graph.Emit)
	infos []Info
	err   error
}

// next counts the next task and reports whether it runs.
func (p *obPlanner) next() bool {
	p.units++
	return p.units > p.from
}

// appendArena copies the extents into the arena, one after another, and
// returns the offset of the first.
func (p *obPlanner) appendArena(exts ...extmem.Extent) int64 {
	off := int64(len(p.arena))
	for _, x := range exts {
		n := len(p.arena)
		p.arena = slices.Grow(p.arena, int(x.Len()))[:n+int(x.Len())]
		x.Load(p.arena[n:])
	}
	return off
}

// spawn reports whether the coordinator is done with the node [lo,hi) of
// o.work: because the run was cancelled, or because the node lies at the
// split frontier — at depth obSplitDepth, no larger than obSplitMinEdges,
// or a base case — and is now a subtree task. The task copies the node's
// segment and annotations from the arena into private extents and runs
// the recursion body on them, bookkeeping included.
func (p *obPlanner) spawn(o *oblivious, lo, hi int64, col [3]uint32, depth int, rnd *hashing.Rand) bool {
	if p.err == nil {
		p.err = ctxutil.Err(p.ctx)
	}
	if p.err != nil {
		return true
	}
	n := hi - lo
	if depth < obSplitDepth && n > obSplitMinEdges && depth < o.maxDepth && n > obliviousBaseCutoff {
		return false
	}
	if !p.next() {
		return true
	}
	off := p.appendArena(o.work.Slice(lo, hi), o.ann.Slice(lo, hi))
	// A private chain: recurse appends to it, and the coordinator's own
	// chain changes as it moves on to the node's siblings.
	chain := slices.Clone(o.chain)
	maxDepth, r := o.maxDepth, *rnd
	idx := len(p.infos)
	p.infos = append(p.infos, Info{})
	p.tasks = append(p.tasks, func(shard *extmem.Space, emit graph.Emit) {
		loc := &oblivious{sp: shard, emit: emit, info: &p.infos[idx], chain: chain, maxDepth: maxDepth}
		loc.alloc(n)
		shard.ExtentAt(off, n).CopyTo(loc.work)
		shard.ExtentAt(off+n, n).CopyTo(loc.ann)
		rnd := r
		loc.recurse(0, n, col, depth, &rnd)
	})
	return true
}

// addHighDegTask hands one of the coordinator's Lemma 1 passes to a
// worker: the pass for v runs against the node's pre-pass segment, the n
// words at arena offset off, and skips the wedges through the vertices
// processed before v, whose edges the recursion body has since removed.
func (p *obPlanner) addHighDegTask(o *oblivious, off, n int64, v uint32, skip []uint32, col [3]uint32, depth int) {
	if !p.next() {
		return
	}
	chain := slices.Clone(o.chain)
	p.tasks = append(p.tasks, func(shard *extmem.Space, emit graph.Emit) {
		loc := &oblivious{sp: shard, emit: emit, chain: chain}
		loc.highDegreePass(shard.ExtentAt(off, n), v, skip, col, depth)
	})
}

// mergeObInfo folds a task's recursion bookkeeping into the run total.
// Triangles are counted once, globally, by the engine's merged emit;
// tasks' own Triangles fields stay zero.
func mergeObInfo(dst *Info, u Info) {
	dst.Subproblems += u.Subproblems
	dst.BaseCases += u.BaseCases
	dst.HighDegVertices += u.HighDegVertices
	for len(dst.Recursion) < len(u.Recursion) {
		dst.Recursion = append(dst.Recursion, RecursionLevel{Level: len(dst.Recursion)})
	}
	for i, lv := range u.Recursion {
		d := &dst.Recursion[i]
		d.Subproblems += lv.Subproblems
		d.TotalEdges += lv.TotalEdges
		if lv.MaxEdges > d.MaxEdges {
			d.MaxEdges = lv.MaxEdges
		}
	}
}
