package repro

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// ErrGraphClosed is returned by queries against a closed Graph handle.
var ErrGraphClosed = errors.New("repro: graph handle is closed")

// Source supplies the edges a Graph is built from. Use FromEdges,
// FromReader, FromTextReader, or FromSpec.
type Source interface {
	loadEdges(o Options) ([][2]uint32, error)
}

type edgesSource [][2]uint32

func (s edgesSource) loadEdges(Options) ([][2]uint32, error) { return s, nil }

type readerSource struct{ r io.Reader }

func (s readerSource) loadEdges(Options) ([][2]uint32, error) { return ReadEdgeFile(s.r) }

type textReaderSource struct{ r io.Reader }

func (s textReaderSource) loadEdges(Options) ([][2]uint32, error) { return ReadTextEdges(s.r) }

type specSource string

func (s specSource) loadEdges(o Options) ([][2]uint32, error) { return Generate(string(s), o.Seed) }

// FromEdges sources a graph from an in-memory undirected edge list.
// Self-loops and duplicate edges are ignored during canonicalization.
func FromEdges(edges [][2]uint32) Source { return edgesSource(edges) }

// FromReader sources a graph from the library's binary edge-file format
// (as written by WriteEdgeFile / cmd/graphgen).
func FromReader(r io.Reader) Source { return readerSource{r} }

// FromTextReader sources a graph from a whitespace-separated text edge
// list (see ReadTextEdges).
func FromTextReader(r io.Reader) Source { return textReaderSource{r} }

// FromSpec sources a graph from a generator spec such as
// "gnm:n=1000,m=8000" (see Generate); the generator seed is Options.Seed.
func FromSpec(spec string) Source { return specSource(spec) }

// Graph is a reusable, updatable handle to a canonicalized graph frozen
// in a simulated (or file-backed) external memory. Build pays the
// O(sort(E)) canonicalization of Section 1.3 exactly once and freezes the
// result into an immutable read-only core; every query — Triangles,
// Cliques, Match — then runs on its own session: a private M-word cache,
// private statistics, and a private scratch allocator layered over the
// shared core (the PEM model of P processors with private internal
// memories over a shared disk, one level up from the worker shards inside
// a query).
//
// The handle is versioned: Update merges a batched edge delta against the
// current core and atomically installs a new immutable generation whose
// image is byte-identical to a fresh Build of the updated edge set. Every
// query pins the generation it started on, so in-flight queries keep
// reading their version while updates install new ones (snapshot
// isolation); a superseded generation's core is released when the last
// query pinning it finishes.
//
// Because sessions share nothing mutable, any number of queries —
// different patterns, k's, seeds, contexts — may run concurrently on one
// handle from different goroutines, and each reports exactly the Result
// it would report run alone: every session starts from the identical
// cold machine state, so emission order within a query, its I/O
// statistics, and CanonIOs are all byte-identical to a serialized run.
// Emit callbacks and iterator loop bodies run on their query's calling
// goroutine and may issue follow-up queries against the same handle;
// the one thing they must not do is Close it (Close waits for active
// queries, so a Close from inside one deadlocks).
//
// The handle's only lock is a close-guard: Close marks the handle closed
// (new queries fail with ErrGraphClosed), waits for active queries and
// updates to drain, and releases every generation core.
type Graph struct {
	opts Options // defaulted

	mu     sync.Mutex
	drain  sync.Cond   // signalled when active drops to zero
	cur    *generation // current generation; survives Close for the accessors
	active int         // live query sessions and updates
	seq    uint64      // per-session scratch-file suffix
	closed bool
	// releaseErr is the first failure releasing a superseded
	// generation's core (which happens on a query drain, with nobody to
	// report to); Close surfaces it.
	releaseErr error
	// persistedGen is the generation durably stored in the image at
	// DiskPath: 0 after Build, the footer's generation after Open,
	// advanced by Checkpoint and the Close promotion. Guarded by mu.
	persistedGen uint64

	// subs are the live standing queries (see Subscribe), keyed by their
	// registration sequence number. Guarded by mu; the install path of an
	// update snapshots them in the same critical section that swaps cur,
	// which is what makes registration atomic against updates.
	subs   map[uint64]*Subscription
	subSeq uint64

	// updateMu serializes Update calls; queries never take it. The
	// write-ahead log below is touched only under it (and by Close, after
	// the drain has excluded every update).
	updateMu sync.Mutex
	// wal is the open write-ahead-log file of a disk-backed handle,
	// opened lazily by the first logged update.
	wal *os.File
}

// generation is one immutable version of the graph: the frozen
// external-memory image plus the canonical metadata, refcounted by the
// sessions reading it and by the handle's current pointer. Disk-backed
// update generations own a file (<DiskPath>.g<n>) that is removed when
// the refcount drains; the Build image at DiskPath itself outlives the
// handle, as before.
type generation struct {
	gen uint64

	core      extmem.Core
	coreFile  *extmem.FileCore
	path      string // file to remove on release ("" for gen 0 and memory graphs)
	coreWords int64  // block-rounded watermark: session scratch starts here
	layout    graph.CanonLayout
	rawLen    int64 // the m of LayoutFor — what a footer for this image records

	numVertices int
	edgesBase   int64
	edgesLen    int64
	degBase     int64
	degLen      int64
	rankToID    []uint32
	canonIOs    uint64

	refs     int // sessions reading this generation, +1 while current
	released bool
}

// Build ingests edges from src, canonicalizes them once — O(sort(E))
// I/Os, run on the parallel external-memory sorts at Options.Workers —
// and freezes the canonical region into the handle's immutable core.
// Graphs with Options.DiskPath set leave the canonical image in the file
// at that path and serve queries from it; Close the handle to release it.
func Build(src Source, opts Options) (*Graph, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	edges, err := src.loadEdges(opts)
	if err != nil {
		return nil, err
	}

	emCfg := extmem.Config{M: opts.MemoryWords, B: opts.BlockWords}
	var sp *extmem.Space
	if opts.DiskPath != "" {
		// A Build starts a fresh durable life at DiskPath: drop any
		// write-ahead log, generation image, scratch, or checkpoint temp a
		// previous life left behind, so stale records can never replay onto
		// the new image.
		if _, err := removeStaleSiblings(opts.DiskPath, true); err != nil {
			return nil, err
		}
		sp, err = extmem.NewFileSpace(emCfg, opts.DiskPath)
		if err != nil {
			return nil, err
		}
	} else {
		sp = extmem.NewSpace(emCfg)
	}

	var el graph.EdgeList
	for _, e := range edges {
		el.Add(e[0], e[1])
	}
	rawLen := int64(el.Len())
	// The parallel sort workers' I/Os are part of the canonicalization
	// cost; the sorts are byte-identical to the sequential ones at every
	// worker count (including 1), so CanonIOs is invariant in
	// Options.Workers.
	var canonWS []extmem.Stats
	workers := opts.workers()
	sorter := func(ext extmem.Extent, stride int, key emsort.Key) {
		canonWS = extmem.AddStatsVec(canonWS, emsort.ParallelSortRecords(ext, stride, key, workers))
	}
	cg := graph.Canonicalize(sp, el.Write(sp), sorter)
	canonStats := sp.Stats()
	for _, w := range canonWS {
		canonStats.Add(w)
	}

	gen := &generation{
		canonIOs:    canonStats.IOs(),
		rawLen:      rawLen,
		numVertices: cg.NumVertices,
		edgesBase:   cg.Edges.Base(),
		edgesLen:    cg.Edges.Len(),
		degBase:     cg.Degrees.Base(),
		degLen:      cg.Degrees.Len(),
		rankToID:    cg.RankToID,
		refs:        1, // the handle's current pointer
	}

	// Freeze the canonicalized region [0, mark) into the immutable core.
	// Memory-backed graphs take the one Snapshot here (writing back the
	// build cache's dirty blocks; those write-backs are part of the build,
	// not of any query, and canonStats is already captured). Disk-backed
	// graphs flush the image to the backing file instead and serve the
	// core from it read-only, so the frozen graph does not have to fit in
	// process memory.
	mark := sp.Mark()
	gen.layout = graph.LayoutFor(rawLen, cg.Edges.Len(), int64(cg.NumVertices), opts.BlockWords)
	if gen.layout.EdgeOut != gen.edgesBase || gen.layout.DegOut != gen.degBase || gen.layout.Mark != mark {
		return nil, fmt.Errorf("repro: internal: canonical layout drift (edges %d/%d, degrees %d/%d, mark %d/%d)",
			gen.layout.EdgeOut, gen.edgesBase, gen.layout.DegOut, gen.degBase, gen.layout.Mark, mark)
	}
	gen.coreWords = (mark + int64(opts.BlockWords) - 1) &^ int64(opts.BlockWords-1)
	if opts.DiskPath != "" {
		sp.Flush()
		if err := sp.Sync(); err != nil {
			sp.Close()
			return nil, err
		}
		if err := sp.Close(); err != nil {
			return nil, err
		}
		// Stamp the durable footer just past the image words — sessions
		// never read at or beyond coreWords, so the image bytes stay
		// identical to the model's view — making the file a self-describing
		// artifact that Open can validate and adopt (see FORMAT.md).
		meta := graph.ImageMeta{
			BlockWords:  opts.BlockWords,
			RawLen:      rawLen,
			EdgesLen:    gen.edgesLen,
			NumVertices: int64(gen.numVertices),
			Generation:  0,
			CanonIOs:    gen.canonIOs,
		}
		if err := writeImageFooter(opts.DiskPath, gen.coreWords, meta); err != nil {
			return nil, err
		}
		fc, err := extmem.NewFileCore(opts.DiskPath)
		if err != nil {
			return nil, err
		}
		gen.core, gen.coreFile = fc, fc
	} else {
		gen.core = extmem.WordsCore(sp.Snapshot(sp.ExtentAt(0, mark)))
		sp.Close()
	}

	g := &Graph{opts: opts, cur: gen}
	g.drain.L = &g.mu
	return g, nil
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// session is the per-query execution state: a private Space layered over
// one generation's immutable core, with the canonical extents rebound
// into it. Acquired at query start, closed (scratch file removed, pinned
// generation unpinned) when the query returns.
type session struct {
	g   *Graph
	gen *generation
	sp  *extmem.Space
	cg  graph.Canonical
}

// acquire opens a new session against the handle's current generation,
// failing with ErrGraphClosed after Close. The session pins its
// generation: updates installed while the query runs do not affect it.
// A native session runs directly on the generation's words (no
// simulated cache, no scratch spill file) and reports zero Stats.
func (g *Graph) acquire(native bool) (*session, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrGraphClosed
	}
	gen := g.cur
	gen.refs++
	g.active++
	g.seq++
	scratch := ""
	if g.opts.DiskPath != "" && !native {
		scratch = fmt.Sprintf("%s.q%d", g.opts.DiskPath, g.seq)
	}
	g.mu.Unlock()

	cfg := extmem.Config{M: g.opts.MemoryWords, B: g.opts.BlockWords, Native: native}
	sp, err := extmem.NewSessionSpace(cfg, gen.core, gen.coreWords, scratch)
	if err != nil {
		g.mu.Lock()
		rel := g.unpinLocked(gen)
		g.releaseRefLocked()
		g.mu.Unlock()
		g.releaseDetached(rel)
		return nil, err
	}
	return &session{
		g:   g,
		gen: gen,
		sp:  sp,
		cg: graph.Canonical{
			Edges:       sp.ExtentAt(gen.edgesBase, gen.edgesLen),
			NumVertices: gen.numVertices,
			Degrees:     sp.ExtentAt(gen.degBase, gen.degLen),
			RankToID:    gen.rankToID,
		},
	}, nil
}

// close releases the session's private machine, unpins its generation
// (releasing a superseded generation's core when its last reader drains),
// and wakes a pending Close when the last session finishes. The core
// release — file syscalls for disk generations — runs outside the lock,
// before the drain signal, so Close still observes any release error.
func (s *session) close() {
	s.sp.Close()
	s.g.mu.Lock()
	rel := s.g.unpinLocked(s.gen)
	s.g.mu.Unlock()
	s.g.releaseDetached(rel)
	s.g.mu.Lock()
	s.g.releaseRefLocked()
	s.g.mu.Unlock()
}

func (g *Graph) releaseRefLocked() {
	g.active--
	if g.active == 0 {
		g.drain.Broadcast()
	}
}

// unpinLocked drops one reference to gen and, when no reader is left and
// it is no longer the current generation, hands it back for the caller
// to release with releaseDetached once the lock is dropped — releasing
// means file syscalls for disk generations, which must not stall every
// concurrent acquire behind g.mu. Nothing can re-pin the detached
// generation: acquire only pins g.cur, and a superseded generation never
// becomes current again.
func (g *Graph) unpinLocked(gen *generation) *generation {
	gen.refs--
	if gen.refs == 0 && gen != g.cur {
		return gen
	}
	return nil
}

// releaseDetached releases a generation handed out by unpinLocked (nil is
// a no-op). The failure has no caller to report to — the draining query
// already returned its Result — so the first one is kept for Close.
func (g *Graph) releaseDetached(gen *generation) {
	if gen == nil {
		return
	}
	if err := gen.release(); err != nil {
		g.mu.Lock()
		if g.releaseErr == nil {
			g.releaseErr = err
		}
		g.mu.Unlock()
	}
}

// release frees the generation's core: superseded disk generations close
// and remove their <DiskPath>.g<n> file; the Build image at DiskPath is
// closed but kept. The canonical metadata survives for the accessors.
func (gen *generation) release() error {
	if gen.released {
		return nil
	}
	gen.released = true
	gen.core = nil
	var err error
	if gen.coreFile != nil {
		err = gen.coreFile.Close()
		gen.coreFile = nil
	}
	if gen.path != "" {
		if rmErr := os.Remove(gen.path); err == nil {
			err = rmErr
		}
	}
	return err
}

// Close marks the handle closed — queries issued from now on return
// ErrGraphClosed — waits for the active queries and updates to finish,
// and releases every generation: superseded cores were already dropped
// when their last reader drained, and the current one is released here
// (closing the canonical-image file of disk-backed graphs and removing
// any <DiskPath>.g<n> update image). Disk-backed handles first checkpoint
// implicitly: the current generation is atomically promoted over the
// image at DiskPath and the now-obsolete write-ahead log is removed, so a
// cleanly closed image stands alone — the next Open adopts the latest
// generation with nothing to replay. If the promotion fails, the log is
// kept: the old image plus the log still replays to the current
// generation. Closing an already-closed Graph is a no-op. Close also
// surfaces the first failure, if any, from releasing a superseded
// generation earlier in the handle's life (those releases run when a
// query drains, where no caller can receive the error). Close must not be
// called from inside an emit callback or iterator body of this handle: it
// would wait for the very query it is running under.
//
// The handle's canonical metadata outlives Close: NumVertices, NumEdges,
// CanonIOs, Generation, and Options keep answering with the values of the
// generation that was current at Close time.
func (g *Graph) Close() error {
	g.mu.Lock()
	first := !g.closed
	g.closed = true
	for g.active > 0 {
		g.drain.Wait()
	}
	var err error
	if first {
		// End every live subscription with ErrGraphClosed. The drain above
		// excluded in-flight updates, so no delivery races this; queued
		// ChangeSets stay deliverable (drop=false) — consumers drain the
		// tail of the stream and then see the channel close.
		subs := g.subs
		g.subs = nil
		for _, s := range subs {
			s.finish(ErrGraphClosed, false)
		}
		var promoteErr, walErr error
		if g.opts.DiskPath != "" {
			walObsolete := true
			if g.cur.gen > g.persistedGen {
				if promoteErr = g.promote(g.cur); promoteErr == nil {
					g.persistedGen = g.cur.gen
				} else {
					// Keep the log: the durable state (persisted image plus
					// WAL) still replays to the current generation on the
					// next Open.
					walObsolete = false
				}
			}
			walErr = g.closeWAL(walObsolete)
		}
		g.cur.refs-- // the current pointer's own reference
		err = errors.Join(promoteErr, walErr, g.cur.release(), g.releaseErr)
	}
	g.mu.Unlock()
	return err
}

// NumVertices is the number of non-isolated vertices after deduplication,
// of the current generation. Like all canonical-metadata accessors it
// remains valid after Close.
func (g *Graph) NumVertices() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur.numVertices
}

// NumEdges is the number of canonical (deduplicated) edges of the current
// generation. It remains valid after Close.
func (g *Graph) NumEdges() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur.edgesLen
}

// CanonIOs is the one-time I/O cost paid to produce the current
// generation's canonical image: the Build canonicalization plus every
// delta merge installed so far (each Update adds its MergeIOs). Every
// Result of a query pinned to a generation reports that generation's
// value. It remains valid after Close.
func (g *Graph) CanonIOs() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur.canonIOs
}

// Generation is the current generation number: 0 after Build,
// incremented by every effective Update. It remains valid after Close.
func (g *Graph) Generation() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur.gen
}

// Options returns the (defaulted) build options of the handle. It remains
// valid after Close.
func (g *Graph) Options() Options { return g.opts }
