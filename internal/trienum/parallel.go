package trienum

import (
	"context"
	"runtime"
	"sync"

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
// engine freezes that array with extmem.Snapshot, dispatches the units to
// a pool of workers, each executing on its own extmem shard (a private
// M-word cache over the shared read-only region), and replays the
// finished units' triangles in the canonical sequential order.
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
}

func (x Exec) workers() int {
	if x.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return x.Workers
}

// shardTask is one unit of parallel work: it runs against a worker's
// shard Space, emitting its triangles (in the unit's canonical order)
// through the supplied callback.
type shardTask func(shard *extmem.Space, emit graph.Emit)

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

// runTasks executes tasks on up to `workers` workers, each worker owning
// one shard Space over the shared snapshot, and emits every task's
// triangles in task order on the calling goroutine. Between tasks a
// worker releases its scratch and drops its cache, so each task runs
// cold, exactly as on a fresh shard. Returns the per-worker stats.
//
// Emission is streamed: each in-flight task hands batches to the merge
// layer over a bounded channel, and tasks are dispatched through a
// bounded window ahead of the merge cursor, so workers exert
// backpressure instead of materializing their output.
//
// When ctx is cancelled the merge layer stops consuming between batches,
// the dispatcher stops handing out subproblems, in-flight tasks unwind at
// their next blocked send, and the pool drains before the function
// returns ctx.Err() with the stats accumulated so far.
func runTasks(ctx context.Context, cfg extmem.Config, shared []extmem.Word, tasks []shardTask, workers int, emit graph.Emit) ([]extmem.Stats, error) {
	if len(tasks) == 0 {
		return nil, ctxutil.Err(ctx)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	streams := make([]chan []graph.Triple, len(tasks))
	for i := range streams {
		streams[i] = make(chan []graph.Triple, streamDepth)
	}
	jobs := make(chan int)
	window := make(chan struct{}, 2*workers)
	// done is closed when the merge layer stops consuming — normally after
	// the last task, but also if the caller's emit panics — so blocked
	// workers and the dispatcher always unwind instead of leaking.
	done := make(chan struct{})
	stats := make([]extmem.Stats, workers)
	var wg sync.WaitGroup
	defer func() {
		close(done)
		wg.Wait()
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := extmem.NewShardSpace(cfg, shared)
			base := shard.Mark()
			for idx := range jobs {
				send := func(batch []graph.Triple) bool {
					select {
					case streams[idx] <- batch:
						return true
					case <-done:
						return false
					}
				}
				abandoned := false
				batch := make([]graph.Triple, 0, emitBatch)
				tasks[idx](shard, func(a, b, c uint32) {
					if abandoned {
						return
					}
					batch = append(batch, graph.Triple{V1: a, V2: b, V3: c})
					if len(batch) == emitBatch {
						// The sent batch is owned by the merge layer now;
						// start a fresh one.
						abandoned = !send(batch)
						batch = make([]graph.Triple, 0, emitBatch)
					}
				})
				if !abandoned && len(batch) > 0 {
					send(batch)
				}
				close(streams[idx])
				shard.Release(base)
				shard.DropCache()
			}
			stats[w] = shard.Stats()
		}(w)
	}
	go func() {
		defer close(jobs)
		for i := range tasks {
			select {
			case window <- struct{}{}: // blocks while the merge cursor lags
			case <-done:
				return
			}
			select {
			case jobs <- i:
			case <-done:
				return
			}
		}
	}()
	// Merge layer: consume the task streams strictly in task order.
	cancelled := ctxutil.Done(ctx)
	for i := range tasks {
		stream := streams[i]
		for stream != nil {
			select {
			case batch, ok := <-stream:
				if !ok {
					stream = nil
					break
				}
				for _, t := range batch {
					emit(t.V1, t.V2, t.V3)
				}
			case <-cancelled:
				return stats, ctx.Err()
			}
		}
		select {
		case <-window:
		case <-cancelled:
			return stats, ctx.Err()
		}
	}
	return stats, nil
}

// highDegreeParallel runs step 1 — one Lemma 1 pass per vertex of degree
// greater than sqrt(E·M) — as shard tasks over a frozen snapshot of the
// full edge set, then compacts the surviving low-degree edges to the
// prefix of work, returning the new length and the per-worker stats.
//
// The paper removes each vertex's edges before processing the next one,
// which is what makes every triangle land at its highest-ranked
// high-degree corner. Against the frozen set the same exactly-once
// guarantee comes from a filter: a triangle {u,w,vr} found at vr is kept
// only if u, w < vr, i.e. vr is the triangle's highest corner. The
// per-vertex triangle sets coincide with those of the removal loop.
func highDegreeParallel(ctx context.Context, sp *extmem.Space, work extmem.Extent, g graph.Canonical, workers int, emit graph.Emit, info *Info) (int64, []extmem.Stats, error) {
	E := work.Len()
	cfg := sp.Config()
	r0 := highDegreeCut(g, float64(E), float64(cfg.M))
	if r0 >= g.NumVertices {
		return E, nil, nil
	}
	shared := sp.Snapshot(work)
	var tasks []shardTask
	for r := g.NumVertices - 1; r >= r0; r-- {
		vr := uint32(r)
		tasks = append(tasks, func(shard *extmem.Space, emit graph.Emit) {
			seg := shard.ExtentAt(0, E)
			enumerateContaining(shard, seg, vr, emsort.SortRecords, func(u, w uint32) {
				if w < vr {
					emit(u, w, vr)
				}
			})
		})
		info.HighDegVertices++
	}
	stats, err := runTasks(ctx, cfg, shared, tasks, workers, emit)
	if err != nil {
		return 0, stats, err
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
// triple with the kernel. The coordinator sorts edges into color-pair
// buckets with the parallel emsort engine and freezes them; each triple's
// bucket union, kernel run, and color filter happen on a worker shard.
// edges is clobbered (sorted by color pair).
func solveColoredParallel(ctx context.Context, sp *extmem.Space, edges extmem.Extent, colorOf func(uint32) uint32, c int, workers int, info *Info, emit graph.Emit) ([]extmem.Stats, error) {
	E := edges.Len()
	if E == 0 {
		return nil, ctxutil.Err(ctx)
	}
	cfg := sp.Config()
	if c <= 1 {
		sortWS, err := emsort.ParallelSortRecordsCtx(ctx, edges, 1, emsort.Identity, workers)
		if err != nil {
			return sortWS, err
		}
		// Single subproblem: this is exactly the Hu–Tao–Chung algorithm
		// applied to the whole edge set.
		shared := sp.Snapshot(edges)
		info.Subproblems++
		task := func(shard *extmem.Space, emit graph.Emit) {
			seg := shard.ExtentAt(0, E)
			_ = kernel(nil, shard, seg, seg, 0, nil, emit) // nil ctx: cannot fail
		}
		ws, err := runTasks(ctx, cfg, shared, []shardTask{task}, 1, emit)
		return extmem.AddStatsVec(sortWS, ws), err
	}
	sortWS, err := emsort.ParallelSortRecordsCtx(ctx, edges, 1, colorPairKey(colorOf, c), workers)
	if err != nil {
		return sortWS, err
	}
	// Bucket offsets: c² + 1 native words of internal memory — within
	// budget under the paper's assumption c² = E/M <= M, i.e. M >= sqrt(E).
	release := sp.LeaseAtMost(c*c + 1)
	off := bucketOffsets(edges, colorOf, c, info)
	release()
	shared := sp.Snapshot(edges)

	// Task granularity. In simulated mode each color triple is one task:
	// the unit the paper's accounting charges, and what keeps the I/O
	// totals of the gated experiments stable. In native mode there is no
	// accounting to preserve and wall-clock is the product, so a skewed
	// triple — one hot color pair holding most pivot edges — is split at
	// the kernel's own chunk boundaries into one task per memEdges pivot
	// rows. The engine's pull-based dispatch (workers take the next task
	// as they free up) then steals the hot triple's chunks across the
	// pool instead of serializing them on one worker. memEdges replicates
	// the kernel's auto-sizing under the c²+1-word bucket-index lease, so
	// chunk boundaries — and the concatenated emission stream — are
	// exactly the single-task kernel's.
	chunked := cfg.Native
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
	forEachTriple(off, c, func(t1, t2, t3 int) {
		info.Subproblems++
		// Scratch for the bucket union; the three named buckets bound
		// its size even when colors coincide and buckets alias.
		need := bucketAt(edges, off, c, t1, t2).Len() +
			bucketAt(edges, off, c, t1, t3).Len() +
			bucketAt(edges, off, c, t2, t3).Len()
		nPiv := bucketAt(edges, off, c, t2, t3).Len()
		if !chunked || nPiv <= int64(memEdges) {
			tasks = append(tasks, func(shard *extmem.Space, emit graph.Emit) {
				// The shard consults the same c²+1-word bucket index the
				// coordinator built; charge it the same internal memory.
				release := shard.LeaseAtMost(c*c + 1)
				defer release()
				seg := shard.ExtentAt(0, E)
				solveTriple(shard, seg, off, c, t1, t2, t3, 0, nPiv, 0, colorOf, shard.Alloc(need), emit)
			})
			return
		}
		for lo := int64(0); lo < nPiv; lo += int64(memEdges) {
			hi := lo + int64(memEdges)
			if hi > nPiv {
				hi = nPiv
			}
			tasks = append(tasks, func(shard *extmem.Space, emit graph.Emit) {
				release := shard.LeaseAtMost(c*c + 1)
				defer release()
				seg := shard.ExtentAt(0, E)
				solveTriple(shard, seg, off, c, t1, t2, t3, lo, hi, memEdges, colorOf, shard.Alloc(need), emit)
			})
		}
	})
	ws, err := runTasks(ctx, cfg, shared, tasks, workers, emit)
	return extmem.AddStatsVec(sortWS, ws), err
}
