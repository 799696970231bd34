package trienum

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/ctxutil"
	"repro/internal/emio"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// The parallel execution engine. The paper's cache-aware algorithms
// decompose into independent units — one Lemma 1 pass per high-degree
// vertex and one Lemma 2 kernel per color triple — that share no mutable
// state once the coordinator has laid out the (sorted) edge array. The
// engine freezes that array with extmem.Snapshot and runs the units on
// extmem.RunOrdered — a pool of workers, each executing on its own extmem
// shard (a private M-word cache over the shared read-only region) — which
// replays the finished units' triangles in the canonical sequential order.
//
// Two properties hold by construction, for any worker count:
//
//   - Determinism: every unit runs against the same frozen input from a
//     cold private cache, so its triangle sequence and its I/O counts do
//     not depend on scheduling. The merge layer emits units in the fixed
//     canonical order, so the overall emission stream is byte-identical
//     across worker counts, and exactly-once.
//   - Exact accounting: per-worker Stats are summed per shard; because
//     per-unit counts are scheduling-independent, the aggregate equals the
//     one-worker engine run exactly.
//
// The engine charges each unit a cold start instead of letting it inherit
// warm cache state from its predecessor — the accounting the paper's
// per-subproblem analysis actually performs.
//
// Units are numbered in emission order across a run's phases, which is
// what lets a run start part-way (Exec.From): the Lemma 1 passes come
// first, then the color triples in forEachTriple order — a native piece
// of a split triple stays in its triple's unit — or the one kernel of the
// c ≤ 1 path. The numbering depends only on the input and the machine,
// so a run from unit u emits exactly the full stream's suffix from u's
// first emission.

// Exec configures the parallel execution engine.
type Exec struct {
	// Workers is the number of worker goroutines solving subproblems;
	// values <= 0 select runtime.GOMAXPROCS(0). Workers=1 runs every
	// subproblem in sequence on one shard.
	Workers int
	// Ctx, when non-nil, cancels a run cooperatively: the engine checks it
	// between subproblems (and the parallel sorts between runs), stops
	// dispatching, drains the worker pool cleanly — no goroutine outlives
	// the call — and returns Ctx.Err(). Emission already handed to emit is
	// never retracted; a cancelled run's triangle stream is a prefix of
	// the full stream. A nil Ctx never cancels.
	Ctx context.Context
	// DisableHighDegree makes CacheAwareParallel skip step 1 (Lemma 1 on
	// vertices with degree greater than sqrt(E·M)), an ablation of the
	// algorithm's design. The algorithm remains correct — the color
	// triples still cover every triangle — but Lemma 3's bound on X_ξ no
	// longer holds on skewed degree distributions, and the I/O cost of
	// step 3 degrades accordingly.
	DisableHighDegree bool
	// From is the first decomposition unit to run, 0 for all of them;
	// it must not be negative. ObliviousParallel's units are its
	// planner's tasks, the others' are numbered as the engine notes
	// above say. The set-up (copy-in, Lemma 1 compaction, color-pair
	// distribution, oblivious planner) runs in full and earlier units
	// are never dispatched, so the run emits the full stream's suffix
	// from unit From's first emission. Its Info still describes the whole
	// decomposition, except that ObliviousParallel's task counters cover
	// only the tasks run. A From past the last unit fails with ErrFrom
	// before any emission.
	From int
	// OnUnit, when non-nil, is called on the emitting goroutine before
	// the first emission of each unit that emits anything, with the
	// unit's number, so the caller knows which unit every emission
	// belongs to.
	OnUnit func(unit int)
}

// ErrFrom reports an Exec.From that names no unit of the run.
var ErrFrom = errors.New("trienum: Exec.From names no unit of the run")

func (x Exec) workers() int {
	if x.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return x.Workers
}

// checkFrom fails a run of the given number of units when From names
// none of them.
func (x Exec) checkFrom(units int) error {
	if x.From != 0 && x.From >= units {
		return fmt.Errorf("%w: unit %d of %d", ErrFrom, x.From, units)
	}
	return nil
}

// shardTask is one piece of parallel work of decomposition unit unit: run
// runs against a worker's shard Space, emitting its triangles (in the
// piece's canonical order) through the supplied callback.
type shardTask struct {
	unit int
	run  func(shard *extmem.Space, emit graph.Emit)
}

const (
	// emitBatch is the number of triangles per merge handoff.
	emitBatch = 1024
	// streamDepth is the number of batches a not-yet-merged task may
	// buffer before its worker blocks. Together with the dispatch window
	// this bounds the engine's native memory at
	// O(workers · streamDepth · emitBatch) triangles regardless of the
	// output size, keeping the engine streaming on triangle-dense graphs.
	streamDepth = 8
)

// runTasks runs tasks on x.Workers of the extmem ordered worker pool (a
// cold shard Space per task, see extmem.RunOrdered) and emits every
// task's triangles in task order on the calling goroutine, calling
// x.OnUnit whenever the emitting unit changes. Each task's triangles
// travel in batches of emitBatch, so workers exert backpressure instead
// of materializing their output. Returns the per-worker stats and, on
// cancellation, x.Ctx's error.
func runTasks(x Exec, cfg extmem.Config, shared []extmem.Word, tasks []shardTask, emit graph.Emit) ([]extmem.Stats, error) {
	pooled := make([]extmem.ShardTask[[]graph.Triple], len(tasks))
	for i, task := range tasks {
		pooled[i] = func(shard *extmem.Space, send func([]graph.Triple) bool) {
			alive := true
			batch := make([]graph.Triple, 0, emitBatch)
			task.run(shard, func(a, b, c uint32) {
				if !alive {
					return
				}
				batch = append(batch, graph.Triple{V1: a, V2: b, V3: c})
				if len(batch) == emitBatch {
					// The sent batch belongs to the consumer now; start a
					// fresh one.
					alive = send(batch)
					batch = make([]graph.Triple, 0, emitBatch)
				}
			})
			if alive && len(batch) > 0 {
				send(batch)
			}
		}
	}
	last := -1
	return extmem.RunOrdered(x.Ctx, cfg, shared, pooled, x.workers(), streamDepth, func(i int, batch []graph.Triple) {
		if u := tasks[i].unit; u != last {
			last = u
			if x.OnUnit != nil {
				x.OnUnit(u)
			}
		}
		for _, t := range batch {
			emit(t.V1, t.V2, t.V3)
		}
	})
}

// highDegreeParallel runs step 1 — one Lemma 1 pass per vertex of degree
// greater than sqrt(E·M), units 0, 1, … of the run, the passes before
// x.From skipped — as shard tasks over a frozen snapshot of the full edge
// set, then compacts the surviving low-degree edges to the prefix of
// work, returning the new length and the per-worker stats. It counts
// every pass, run or skipped, in info.HighDegVertices.
//
// The paper removes each vertex's edges before processing the next one,
// which is what makes every triangle land at its highest-ranked
// high-degree corner. Against the frozen set the same exactly-once
// guarantee comes from a filter: a triangle {u,w,vr} found at vr is kept
// only if u, w < vr, i.e. vr is the triangle's highest corner. The
// per-vertex triangle sets coincide with those of the removal loop.
func highDegreeParallel(x Exec, sp *extmem.Space, work extmem.Extent, g graph.Canonical, emit graph.Emit, info *Info) (int64, []extmem.Stats, error) {
	E := work.Len()
	cfg := sp.Config()
	r0 := highDegreeCut(g, float64(E), float64(cfg.M))
	if r0 >= g.NumVertices {
		return E, nil, nil
	}
	var tasks []shardTask
	for r := g.NumVertices - 1; r >= r0; r-- {
		info.HighDegVertices++
		if unit := g.NumVertices - 1 - r; unit < x.From {
			continue
		}
		vr := uint32(r)
		tasks = append(tasks, shardTask{g.NumVertices - 1 - r, func(shard *extmem.Space, emit graph.Emit) {
			seg := shard.ExtentAt(0, E)
			enumerateContaining(shard, seg, vr, emsort.SortRecords, func(u, w uint32) {
				if w < vr {
					emit(u, w, vr)
				}
			})
		}})
	}
	var stats []extmem.Stats
	if len(tasks) > 0 {
		var err error
		if stats, err = runTasks(x, cfg, sp.Snapshot(work), tasks, emit); err != nil {
			return 0, stats, err
		}
	}
	return compactBelow(sp, work, uint32(r0)), stats, nil
}

// compactBelow drops every edge with an endpoint of rank >= r0 (edges are
// canonical, u < v, so that is exactly V(e) >= r0), compacting survivors
// to the prefix of work — the same edge set, in the same order, that
// removing each high-degree vertex in turn would leave.
func compactBelow(sp *extmem.Space, work extmem.Extent, r0 uint32) int64 {
	mark := sp.Mark()
	defer sp.Release(mark)
	scratch := sp.Alloc(work.Len())
	w := emio.NewWriter(scratch)
	kept := emio.Filter(w, work, func(e extmem.Word) bool {
		return graph.V(e) < r0
	})
	emio.Copy(work.Prefix(kept), scratch.Prefix(kept))
	return kept
}

// solveColoredParallel runs steps 2 and 3 shared by the cache-aware
// randomized and the deterministic algorithms: partition edges by the
// color pair of their endpoints under colorOf, then solve every color
// triple with the kernel. The coordinator distributes the edges into
// color-pair buckets with graph.ColorBuckets — sequential, so its I/Os do
// not depend on the worker count — and freezes them; each triple's
// cone-bucket merge and kernel run happen on a worker shard. The triples
// are units base, base+1, … of the run, and those before x.From are
// skipped. edges must be in canonical order; it is left unchanged.
func solveColoredParallel(x Exec, sp *extmem.Space, edges extmem.Extent, colorOf func(uint32) uint32, c, base int, info *Info, emit graph.Emit) ([]extmem.Stats, error) {
	ctx, workers := x.Ctx, x.workers()
	E := edges.Len()
	if E == 0 {
		if err := x.checkFrom(base); err != nil {
			return nil, err
		}
		return nil, ctxutil.Err(ctx)
	}
	cfg := sp.Config()
	if c <= 1 {
		// Single subproblem, unit base: this is exactly the Hu–Tao–Chung
		// algorithm applied to the whole edge set.
		if err := x.checkFrom(base + 1); err != nil {
			return nil, err
		}
		sortWS, err := emsort.ParallelSortRecordsCtx(ctx, edges, 1, emsort.Identity, workers)
		if err != nil {
			return sortWS, err
		}
		info.Subproblems++
		task := shardTask{base, func(shard *extmem.Space, emit graph.Emit) {
			seg := shard.ExtentAt(0, E)
			_ = kernel(nil, shard, seg, seg, 0, emit) // nil ctx: cannot fail
		}}
		ws, err := runTasks(x, cfg, sp.Snapshot(edges), []shardTask{task}, emit)
		return extmem.AddStatsVec(sortWS, ws), err
	}
	// The c²+1 bucket offsets are native words of internal memory, leased
	// by Distribute while it builds them and by every shard that consults
	// them — within budget under the paper's assumption c² = E/M <= M,
	// i.e. M >= sqrt(E).
	buckets, off := graph.ColorBuckets(sp, edges, colorOf, c)
	for b := 0; b < c*c; b++ {
		n := uint64(off[b+1] - off[b])
		info.X += n * (n - 1) / 2 // Lemma 3's X_ξ: pairs of edges sharing a bucket
	}
	if err := ctxutil.Err(ctx); err != nil {
		return nil, err
	}
	shared := sp.Snapshot(buckets)

	// Task granularity. In simulated mode each color triple is one task:
	// the unit the paper's accounting charges, and what keeps the I/O
	// totals of the gated experiments stable. In native mode there is no
	// accounting to preserve and wall-clock is the product, so with more
	// than one worker a skewed triple — one hot color pair holding most
	// pivot edges — is split at the kernel's own chunk boundaries into at
	// most one task per worker. The engine's pull-based dispatch (workers
	// take the next task as they free up) then steals the hot triple's
	// pieces across the pool instead of serializing them on one worker.
	// Each piece re-merges the triple's cone buckets, so it is split no
	// finer than the pool can use. memEdges replicates the kernel's
	// auto-sizing under the c²+1-word bucket-index lease, so chunk
	// boundaries — and the concatenated emission stream — are exactly the
	// single-task kernel's.
	chunked := cfg.Native && workers > 1
	memEdges := 0
	if chunked {
		lease := c*c + 1
		if maxLease := cfg.M - 2*cfg.B; lease > maxLease {
			lease = maxLease
		}
		if lease < 0 {
			lease = 0
		}
		memEdges = (cfg.M - lease) / 8
		if memEdges < 16 {
			memEdges = 16
		}
	}

	var tasks []shardTask
	units := base
	forEachTriple(off, c, func(t1, t2, t3 int) {
		unit := units
		units++
		info.Subproblems++
		if unit < x.From {
			return
		}
		nPiv := bucketAt(buckets, off, c, t2, t3).Len()
		solve := func(lo, hi int64, chunk int) shardTask {
			return shardTask{unit, func(shard *extmem.Space, emit graph.Emit) {
				// The shard consults the same c²+1-word bucket index the
				// coordinator built; charge it the same internal memory.
				release := shard.LeaseAtMost(c*c + 1)
				defer release()
				seg := shard.ExtentAt(0, E)
				SolveTriple(shard, seg, off, c, t1, t2, t3, lo, hi, chunk, emit)
			}}
		}
		if !chunked || nPiv <= int64(memEdges) {
			tasks = append(tasks, solve(0, nPiv, 0))
			return
		}
		chunks := (nPiv + int64(memEdges) - 1) / int64(memEdges)
		step := (chunks + int64(workers) - 1) / int64(workers) * int64(memEdges)
		for lo := int64(0); lo < nPiv; lo += step {
			tasks = append(tasks, solve(lo, min(lo+step, nPiv), memEdges))
		}
	})
	if err := x.checkFrom(units); err != nil {
		return nil, err
	}
	return runTasks(x, cfg, shared, tasks, emit)
}
