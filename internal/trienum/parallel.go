package trienum

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/emio"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// The parallel execution engine. The paper's cache-aware algorithms
// decompose into independent units — one Lemma 1 pass per high-degree
// vertex and one Lemma 2 kernel per color triple — that share no mutable
// state once the coordinator has laid out the (sorted) edge array. The
// engine freezes that array with extmem.Snapshot and runs the units with
// RunTuples — the one runner of every engine that emits tuples, over the
// extmem.RunOrdered pool of workers, each executing on its own extmem
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
// Every task is one decomposition unit, in either mode and at any worker
// count. Units are numbered in emission order across a run's phases,
// which is what lets a run start part-way (Exec.From): the Lemma 1 passes
// come first, then the color triples the color-coded step lists, in
// lexicographic order (ColorCoded; one color has one triple). The
// numbering depends only on the input and the machine, so a run from unit
// u emits exactly the full stream's suffix from u's first emission.

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
	// it must not be negative. A unit is one pool task, in either mode
	// and at any worker count: ObliviousParallel's units are its
	// planner's tasks, the others' are the Lemma 1 passes and then the
	// color tuples ColorCoded lists, numbered as the engine notes say. The set-up (copy-in, Lemma 1 compaction, color-pair
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

// CheckFrom fails a run of the given number of units, ErrFrom, when From
// names none of them; a run of no units accepts only From 0.
func (x Exec) CheckFrom(units int) error {
	if x.From != 0 && x.From >= units {
		return fmt.Errorf("%w: unit %d of %d", ErrFrom, x.From, units)
	}
	return nil
}

const (
	// emitBatch is the number of emissions per merge handoff.
	emitBatch = 1024
	// streamDepth is the number of batches a not-yet-merged task may
	// buffer before its worker blocks. Together with the dispatch window
	// this bounds the engine's native memory at
	// O(workers · streamDepth · emitBatch) emissions regardless of the
	// output size, keeping the engine streaming on triangle-dense graphs.
	streamDepth = 8
)

// Sink is a RunTuples task's output: it batches the task's emissions,
// k words each, into flat batches of emitBatch emissions that it hands
// to the consumer, which returns them for reuse once delivered. Once the
// pool unwinds, the sink drops the rest. Its emit methods grow flat by
// reslicing it in place, which stores only the length, where an append
// would store the whole slice header, with a write barrier, per emission.
type Sink struct {
	k     int
	flat  []uint32
	free  chan []uint32
	send  func(flat []uint32) bool
	alive bool
}

// Triangle is the sink's graph.Emit, for k = 3.
func (s *Sink) Triangle(a, b, c uint32) {
	if s.alive {
		if len(s.flat) == cap(s.flat) {
			s.handOff()
		}
		n := len(s.flat)
		s.flat = s.flat[:n+3]
		s.flat[n], s.flat[n+1], s.flat[n+2] = a, b, c
	}
}

// Tuple emits one k-tuple; it copies t.
func (s *Sink) Tuple(t []uint32) {
	if s.alive {
		if len(s.flat) == cap(s.flat) {
			s.handOff()
		}
		n := len(s.flat)
		s.flat = s.flat[:n+len(t)]
		dst := s.flat[n:]
		for i, v := range t[:len(dst)] { // k is small: no memmove call
			dst[i] = v
		}
	}
}

// handOff sends the full batch, if any, and starts the next one, a
// delivered batch when one is free: a task that emits nothing takes none.
func (s *Sink) handOff() {
	if len(s.flat) > 0 {
		s.alive = s.send(s.flat)
	}
	select {
	case s.flat = <-s.free:
	default:
		s.flat = make([]uint32, 0, s.k*emitBatch)
	}
}

// poolBatch is one handoff of a task to the consumer: emissions, and on
// the task's last batch its result.
type poolBatch[R any] struct {
	flat []uint32
	last bool
	r    R
}

// RunTuples is the one runner of every engine that emits tuples: the
// triangle engines' Lemma 1 passes and §3 planner tasks, the color-coded
// step's color tuples (ColorCoded), the diff kernel's anchor chunks and a
// cluster shard's owned tuples. It runs tasks 0, …, n-1 on x.Workers of
// the extmem ordered worker pool, each on a cold shard Space over shared
// (the coordinator's frozen layout at address 0, see extmem.RunOrdered),
// and emits every task's k-tuples in task order on the calling
// goroutine. task(i) makes task i, in index order, and what it returns
// solves it, passing its emissions to out, and returns its result; done,
// when non-nil, receives it on the calling goroutine after the task's
// last emission, and a task the pool unwinds in is never done. Task i is
// decomposition unit x.From+i, and x.OnUnit, when set, hears of it before
// its first emission; the caller checks x.From against its units. The
// plan is task itself: the pool makes each task when it dispatches it, so
// nothing is held per task and n may be as large as the engine's index
// space.
//
// emit receives each k-tuple as a slice of a delivered batch, valid only
// during the call. Batches hold at most emitBatch emissions, so workers
// exert backpressure instead of materializing their output, and a
// delivered batch is reused, so a run allocates O(workers · streamDepth)
// of them however much it emits. Returns the per-worker stats and, on
// cancellation, x.Ctx's error.
func RunTuples[R any](x Exec, cfg extmem.Config, shared []extmem.Word, k, n int, task func(i int) func(shard *extmem.Space, out *Sink) R, emit func(t []uint32), done func(R)) ([]extmem.Stats, error) {
	// Room for every batch the pool can hold: per task in flight, its
	// stream's and the one being filled or delivered.
	free := make(chan []uint32, 2*min(x.workers(), n)*(streamDepth+2))
	last := -1
	return extmem.RunOrdered(x.Ctx, cfg, shared, n, func(i int) func(*extmem.Space, func(poolBatch[R]) bool) {
		run := task(i)
		return func(shard *extmem.Space, send func(poolBatch[R]) bool) {
			out := Sink{k: k, free: free, alive: true, send: func(flat []uint32) bool {
				return send(poolBatch[R]{flat: flat})
			}}
			r := run(shard, &out)
			if out.alive {
				send(poolBatch[R]{flat: out.flat, last: true, r: r})
			}
		}
	}, x.workers(), streamDepth, func(i int, b poolBatch[R]) {
		if len(b.flat) > 0 {
			if i != last {
				last = i
				if x.OnUnit != nil {
					x.OnUnit(x.From + i)
				}
			}
			for flat := b.flat; len(flat) >= k; flat = flat[k:] {
				emit(flat[:k:k])
			}
			select {
			case free <- b.flat[:0]:
			default:
			}
		}
		if b.last && done != nil {
			done(b.r)
		}
	})
}

// triangles adapts a triangle engine's emit to RunTuples'.
func triangles(emit graph.Emit) func(t []uint32) {
	return func(t []uint32) { emit(t[0], t[1], t[2]) }
}

// highDegreeParallel runs step 1 — one Lemma 1 pass per vertex of degree
// greater than sqrt(E·M), units 0, 1, … of the run, the passes before
// x.From skipped — as RunTuples tasks over a frozen snapshot of the full
// edge set, then compacts the surviving low-degree edges to the prefix of
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
	info.HighDegVertices += g.NumVertices - r0
	var stats []extmem.Stats
	if n := g.NumVertices - r0 - x.From; n > 0 {
		var err error
		// Pass i is unit x.From+i, the vertex of rank NumVertices-1-x.From-i.
		stats, err = RunTuples(x, cfg, sp.Snapshot(work), 3, n, func(i int) func(*extmem.Space, *Sink) struct{} {
			vr := uint32(g.NumVertices - 1 - x.From - i)
			return func(shard *extmem.Space, out *Sink) struct{} {
				enumerateContaining(shard, shard.ExtentAt(0, E), vr, emsort.SortRecords, func(u, w uint32) {
					if w < vr {
						out.Triangle(u, w, vr)
					}
				})
				return struct{}{}
			}
		}, triangles(emit), nil)
		if err != nil {
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
	scratch.Prefix(kept).CopyTo(work.Prefix(kept))
	return kept
}

// solveColoredParallel runs steps 2 and 3 shared by the cache-aware
// randomized and the deterministic algorithms: the color-coded step at
// k = 3 (ColorCoded), whose listed triples are units base, base+1, … and
// are each solved on a worker shard by SolveTriple. One color is no
// special case: its one triple (0,0,0) is the kernel over the whole edge
// set, Hu–Tao–Chung. It adds Lemma 3's X_ξ and the triples listed to info.
func solveColoredParallel(x Exec, sp *extmem.Space, edges extmem.Extent, colorOf func(uint32) uint32, c, base int, info *Info, emit graph.Emit) ([]extmem.Stats, error) {
	off, n, ws, err := ColorCoded(x, sp, edges, colorOf, c, CliqueRule(3), base, func(shard *extmem.Space, edges extmem.Extent, off []int64, t []int, _ *struct{}, out *Sink) error {
		SolveTriple(shard, edges, off, c, t[0], t[1], t[2], out.Triangle)
		return nil
	}, triangles(emit), func(struct{}) {})
	for b := 0; b+1 < len(off); b++ {
		m := uint64(off[b+1] - off[b])
		info.X += m * (m - 1) / 2 // Lemma 3's X_ξ: pairs of edges sharing a bucket
	}
	info.Subproblems += n
	return ws, err
}
