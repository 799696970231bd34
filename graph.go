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
// external-memory image and the durable footer that describes it,
// refcounted by the readers pinning it and by the handle's current
// pointer. meta is exactly the footer a durable image of this generation
// carries (graph.ImageMeta; CanonIOs is what this process paid), and
// layout is its graph.LayoutFor address map: every dimension, base and
// watermark of the image derives from the two. A disk-backed generation
// is written as a complete image, footer included, to its own file
// <DiskPath>.g<n>, which is removed when the refcount drains unless
// promote has renamed it over DiskPath first: a generation is durable
// exactly when it has no file of its own.
type generation struct {
	meta   graph.ImageMeta
	layout graph.CanonLayout

	core     extmem.Core
	coreFile *extmem.FileCore
	path     string   // the generation's own image file ("" once promoted, and on memory graphs)
	rankToID []uint32 // the O(V) rank→id index the image's ByDeg table holds

	refs int // readers pinning this generation, +1 while current
}

// coreWords is the block-rounded image watermark: sessions read below it,
// their scratch starts at it, and a durable image's footer is written
// there.
func (gen *generation) coreWords() int64 { return gen.meta.ImageWords(gen.layout) }

// open starts a private session Space over the generation's frozen core:
// an M-word cache, private statistics, and scratch spilling to the file
// scratch names ("" keeps it in memory). A native Space runs directly on
// the core's words and keeps no statistics.
func (gen *generation) open(opts Options, native bool, scratch string) (*extmem.Space, error) {
	cfg := extmem.Config{M: opts.MemoryWords, B: opts.BlockWords, Native: native}
	return extmem.NewSessionSpace(cfg, gen.core, gen.coreWords(), scratch)
}

// imagePath names generation n's own image file, <DiskPath>.g<n>, or ""
// on a memory-backed graph.
func (o Options) imagePath(n uint64) string {
	if o.DiskPath == "" {
		return ""
	}
	return fmt.Sprintf("%s.g%d", o.DiskPath, n)
}

// newImage returns the Space a generation's image is laid out in: the
// file at path (truncated), or process memory when path is "".
func newImage(opts Options, path string) (*extmem.Space, error) {
	cfg := extmem.Config{M: opts.MemoryWords, B: opts.BlockWords}
	if path == "" {
		return extmem.NewSpace(cfg), nil
	}
	return extmem.NewFileSpace(cfg, path)
}

// freeze turns sp, the Space gen's image was laid out in from address 0,
// into gen's immutable core. A memory image is snapshotted (writing back
// the dirty blocks). A disk image is flushed and closed, stamped with its
// footer just past the block-rounded watermark — sessions never read at
// or beyond coreWords, so the image bytes stay identical to the model's
// view — and reopened read-only as the core, so every generation file is
// a complete image Open could adopt (see FORMAT.md). A failed disk freeze
// removes the file.
func (gen *generation) freeze(sp *extmem.Space) error {
	if gen.path == "" {
		gen.core = extmem.WordsCore(sp.Snapshot(sp.ExtentAt(0, gen.layout.Mark)))
		return sp.Close()
	}
	sp.Flush()
	err := sp.Close()
	if err == nil {
		err = writeImageFooter(gen.path, gen.coreWords(), gen.meta)
	}
	if err == nil {
		gen.coreFile, err = extmem.NewFileCore(gen.path)
	}
	if err != nil {
		os.Remove(gen.path)
		return err
	}
	gen.core = gen.coreFile
	return nil
}

// canonical rebinds the generation's canonical extents into sp, a Space
// opened over its core.
func (gen *generation) canonical(sp *extmem.Space) graph.Canonical {
	return graph.Canonical{
		Edges:       sp.ExtentAt(gen.layout.EdgeOut, gen.meta.EdgesLen),
		NumVertices: int(gen.meta.NumVertices),
		Degrees:     sp.ExtentAt(gen.layout.DegOut, gen.meta.NumVertices),
		RankToID:    gen.rankToID,
	}
}

// Build ingests edges from src, canonicalizes them once — O(sort(E))
// I/Os, run on the parallel external-memory sorts at Options.Workers —
// and freezes the canonical region into the handle's immutable core.
// Graphs with Options.DiskPath set write the canonical image to
// <DiskPath>.g0, rename it over the file at DiskPath (which stays intact
// until then) and serve queries from it; Close the handle to release it.
func Build(src Source, opts Options) (*Graph, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	edges, err := src.loadEdges(opts)
	if err != nil {
		return nil, err
	}

	if opts.DiskPath != "" {
		// A Build starts a fresh durable life at DiskPath: drop any
		// write-ahead log, generation image, scratch, or checkpoint temp a
		// previous life left behind, so stale records can never replay onto
		// the new image.
		if _, err := removeStaleSiblings(opts.DiskPath, true); err != nil {
			return nil, err
		}
	}
	path := opts.imagePath(0)
	sp, err := newImage(opts, path)
	if err != nil {
		return nil, err
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
		meta: graph.ImageMeta{
			BlockWords:  opts.BlockWords,
			RawLen:      rawLen,
			EdgesLen:    cg.Edges.Len(),
			NumVertices: int64(cg.NumVertices),
			CanonIOs:    canonStats.IOs(),
		},
		layout:   graph.LayoutFor(rawLen, cg.Edges.Len(), int64(cg.NumVertices), opts.BlockWords),
		path:     path,
		rankToID: cg.RankToID,
		refs:     1, // the handle's current pointer
	}
	if mark := sp.Mark(); gen.layout.EdgeOut != cg.Edges.Base() || gen.layout.DegOut != cg.Degrees.Base() || gen.layout.Mark != mark {
		sp.Close()
		return nil, fmt.Errorf("repro: internal: canonical layout drift (edges %d/%d, degrees %d/%d, mark %d/%d)",
			gen.layout.EdgeOut, cg.Edges.Base(), gen.layout.DegOut, cg.Degrees.Base(), gen.layout.Mark, mark)
	}
	// Freeze the canonicalized region into the immutable core; its final
	// write-backs are part of the build, not of any query, and canonStats
	// is already captured. A disk-backed core is served from its file, so
	// the frozen graph does not have to fit in process memory.
	if err := gen.freeze(sp); err != nil {
		return nil, err
	}
	g := &Graph{opts: opts, cur: gen}
	g.drain.L = &g.mu
	if err := g.promote(gen); err != nil {
		return nil, errors.Join(err, gen.release())
	}
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
	gen, seq, err := g.pin()
	if err != nil {
		return nil, err
	}
	scratch := ""
	if g.opts.DiskPath != "" && !native {
		scratch = fmt.Sprintf("%s.q%d", g.opts.DiskPath, seq)
	}
	sp, err := gen.open(g.opts, native, scratch)
	if err != nil {
		g.unpin(gen)
		return nil, err
	}
	return &session{g: g, gen: gen, sp: sp, cg: gen.canonical(sp)}, nil
}

// close releases the session's private machine and unpins its generation.
func (s *session) close() {
	s.sp.Close()
	s.g.unpin(s.gen)
}

// pin registers a reader of the current generation — a query session, an
// Update, a Checkpoint — with the close-guard and returns that generation
// with a fresh handle-wide sequence number (the suffix of the reader's
// scratch file). It fails with ErrGraphClosed after Close. Every pin is
// matched by one unpin.
func (g *Graph) pin() (*generation, uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, 0, ErrGraphClosed
	}
	gen := g.cur
	gen.refs++
	g.active++
	g.seq++
	return gen, g.seq, nil
}

// unpin ends a reader's pin. If gen is superseded and this was its last
// reader, its core is released outside the lock (file syscalls for disk
// generations must not stall every concurrent pin behind g.mu) but before
// the drain signal, so a pending Close sees the release error, which is
// kept for Close because the draining reader has already returned.
// Nothing can re-pin a detached generation: pin only pins g.cur, and a
// superseded generation never becomes current again.
func (g *Graph) unpin(gen *generation) {
	g.mu.Lock()
	gen.refs--
	detached := gen.refs == 0 && gen != g.cur
	g.mu.Unlock()
	var err error
	if detached {
		err = gen.release()
	}
	g.mu.Lock()
	if g.releaseErr == nil {
		g.releaseErr = err
	}
	g.active--
	if g.active == 0 {
		g.drain.Broadcast()
	}
	g.mu.Unlock()
}

// release frees the generation's core, once, when its last reference
// goes: a disk generation closes its file and removes it unless it was
// promoted to DiskPath, which is kept. The canonical metadata survives
// for the accessors.
func (gen *generation) release() error {
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
// (closing the image file of disk-backed graphs). Disk-backed handles
// first checkpoint implicitly: the current generation's image is renamed
// over the image at DiskPath and the now-obsolete write-ahead log is
// removed, so a cleanly closed image stands alone — the next Open adopts
// the latest generation with nothing to replay. If the promotion fails,
// the generation's file is removed and the log is kept: the old image
// plus the log still replays to the current generation. Closing an
// already-closed Graph is a no-op. Close also surfaces the first failure,
// if any, from releasing a superseded generation earlier in the handle's
// life (those releases run when a query drains, where no caller can
// receive the error). Close must not be called from inside an emit
// callback or iterator body of this handle: it would wait for the very
// query it is running under.
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
			// If the promotion fails, keep the log: the durable state (the
			// image at DiskPath plus the WAL) still replays to the current
			// generation on the next Open.
			promoteErr = g.promote(g.cur)
			walErr = g.closeWAL(promoteErr == nil)
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
	return int(g.cur.meta.NumVertices)
}

// NumEdges is the number of canonical (deduplicated) edges of the current
// generation. It remains valid after Close.
func (g *Graph) NumEdges() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur.meta.EdgesLen
}

// CanonIOs is the one-time I/O cost paid to produce the current
// generation's canonical image: the Build canonicalization plus every
// delta merge installed so far (each Update adds its MergeIOs). Every
// Result of a query pinned to a generation reports that generation's
// value. It remains valid after Close.
func (g *Graph) CanonIOs() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur.meta.CanonIOs
}

// Generation is the current generation number: 0 after Build,
// incremented by every effective Update. It remains valid after Close.
func (g *Graph) Generation() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur.meta.Generation
}

// Options returns the (defaulted) build options of the handle. It remains
// valid after Close.
func (g *Graph) Options() Options { return g.opts }
