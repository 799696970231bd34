package repro

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// Edge is one undirected edge in the caller's vertex-id space, as
// everywhere else in the API: {u, v} and {v, u} are the same edge, and
// self-loops are ignored.
type Edge = [2]uint32

// Delta is a batched mutation of a Graph's edge set. The updated set is
// (E \ Remove) ∪ Add: removing an absent edge and adding a present one
// are no-ops (only effective changes are counted), duplicates within
// either list are collapsed, and an edge named in both lists ends up
// present. Vertices appear and disappear with their edges — ids never
// seen before are valid in Add, and a vertex whose last edge is removed
// leaves the graph.
type Delta struct {
	Add    []Edge
	Remove []Edge
}

// UpdateResult reports an installed (or no-op) Update.
type UpdateResult struct {
	// Generation is the generation serving queries after the call: the
	// newly installed one, or the unchanged current one when the delta
	// had no effect.
	Generation uint64
	// Added and Removed count the effective edge changes.
	Added, Removed int64
	// Vertices and Edges describe the updated graph.
	Vertices int
	Edges    int64
	// MergeIOs is the block-I/O cost of the delta merge: sorting the
	// delta, merging it against the frozen image, re-deriving the
	// canonical artifacts, and writing the new generation's image. It is
	// deterministic for a given graph and delta, and invariant in
	// Options.Workers — and, for small deltas, strictly below the
	// O(sort(E)) cost of rebuilding via Build (see BenchmarkE18UpdateDelta).
	MergeIOs uint64
}

// Update merges the delta against the current generation's frozen
// canonical image and atomically installs the result as a new immutable
// generation. The delta is sorted with the parallel external-memory
// sorts at Options.Workers and merged in O(sort(E_delta) + scan(E) +
// scan(V)) I/Os plus two sort(E) relabeling passes — re-deriving degrees,
// ranks, and the canonical edge array incrementally rather than
// re-canonicalizing — and the installed image is byte-identical to the
// one a fresh Build of the updated edge set would freeze: every query on
// the new generation emits, counts, and reports I/O statistics exactly as
// it would against that fresh handle, at every worker count. (The one
// exception is Result.CanonIOs, which reports the cost actually paid —
// Build plus merges — rather than the hypothetical rebuild's.)
//
// Queries and updates interleave freely: in-flight queries keep reading
// the generation they started on and new queries pin the latest one, so
// a query never observes a half-installed update (snapshot isolation).
// Updates themselves are serialized with each other. Disk-backed handles
// write each update generation as a complete image, footer included, to
// <DiskPath>.g<n> and remove it when its last reader drains unless a
// Checkpoint or Close has promoted it over DiskPath first (the image at
// DiskPath is left untouched until then, so it no longer reflects the
// handle after an effective Update); merge scratch spills to a temporary
// <DiskPath>.u<n> file, removed when the call returns.
//
// Cancellation through ctx is cooperative: the merge stops between
// phases and sort runs, the handle keeps serving its current generation,
// and ctx.Err() is returned. ctx may be nil. A delta with no effective
// changes installs nothing and reports the current generation (with the
// MergeIOs spent discovering that).
//
// On disk-backed handles every effective Update is also appended to the
// write-ahead log at <DiskPath>.wal and fsynced before the new generation
// becomes current, so a crash before the next Checkpoint/Close replays it
// on Open — see Open and the package's "Durability and recovery" section.
func (g *Graph) Update(ctx context.Context, d Delta) (UpdateResult, error) {
	return g.applyPacked(ctx, packDelta(d.Add), packDelta(d.Remove), true)
}

// applyPacked is Update on pre-packed delta words. WAL replay calls it
// with durable=false: a replayed record is already in the log, so
// re-appending it would double the history.
func (g *Graph) applyPacked(ctx context.Context, adds, removes []extmem.Word, durable bool) (UpdateResult, error) {
	g.updateMu.Lock()
	defer g.updateMu.Unlock()

	// Register with the close-guard (Close waits for updates like it
	// waits for queries) and pin the generation being merged against.
	old, seq, err := g.pin()
	if err != nil {
		return UpdateResult{}, err
	}
	defer g.unpin(old)

	scratch := ""
	if g.opts.DiskPath != "" {
		scratch = fmt.Sprintf("%s.u%d", g.opts.DiskPath, seq)
	}
	sp, err := old.open(g.opts, false, scratch)
	if err != nil {
		return UpdateResult{}, err
	}
	defer sp.Close()

	workers := g.opts.workers()
	var mergeWS []extmem.Stats
	sorter := func(ext extmem.Extent) error {
		ws, err := emsort.ParallelSortRecordsCtx(ctx, ext, 1, emsort.Identity, workers)
		mergeWS = extmem.AddStatsVec(mergeWS, ws)
		return err
	}
	view := graph.GenView{
		IDEdges:  sp.ExtentAt(old.layout.Dedup, old.meta.EdgesLen),
		Ends:     sp.ExtentAt(old.layout.Ends, 2*old.meta.EdgesLen),
		ByDeg:    sp.ExtentAt(old.layout.ByDeg, old.meta.NumVertices),
		RankByID: sp.ExtentAt(old.layout.RankByID, old.meta.NumVertices),
	}
	m, err := graph.MergeDelta(ctx, sp, view, adds, removes, sorter)
	if err != nil {
		return UpdateResult{}, err
	}

	if m.Added == 0 && m.Removed == 0 {
		mergeStats := sp.Stats()
		for _, w := range mergeWS {
			mergeStats.Add(w)
		}
		return UpdateResult{
			Generation: old.meta.Generation,
			Vertices:   int(old.meta.NumVertices),
			Edges:      old.meta.EdgesLen,
			MergeIOs:   mergeStats.IOs(),
		}, nil
	}

	// Lay the merged artifacts down as a fresh-Build image — same
	// addresses, same watermark, scratch regions left empty — and freeze
	// it into the next generation's core.
	eNew := m.Edges.Len()
	lay := graph.LayoutFor(eNew, eNew, int64(m.NumVertices), g.opts.BlockWords)
	genPath := g.opts.imagePath(old.meta.Generation + 1)
	img, err := newImage(g.opts, genPath)
	if err != nil {
		return UpdateResult{}, err
	}
	img.Alloc(lay.Mark)
	m.IDEdges.CopyTo(img.ExtentAt(lay.Dedup, m.IDEdges.Len()))
	m.Ends.CopyTo(img.ExtentAt(lay.Ends, m.Ends.Len()))
	m.ByDeg.CopyTo(img.ExtentAt(lay.ByDeg, m.ByDeg.Len()))
	m.RankByID.CopyTo(img.ExtentAt(lay.RankByID, m.RankByID.Len()))
	m.Degrees.CopyTo(img.ExtentAt(lay.DegOut, m.Degrees.Len()))
	m.Edges.CopyTo(img.ExtentAt(lay.EdgeOut, m.Edges.Len()))
	img.Flush()

	// MergeIOs covers everything the update paid: the session's sorts,
	// merge scans, and copy-out reads, the sort workers' I/Os, and the
	// image writes — captured only now, after the copy-out charged its
	// reads to the session.
	mergeStats := sp.Stats()
	for _, w := range mergeWS {
		mergeStats.Add(w)
	}
	mergeStats.Add(img.Stats())
	mergeIOs := mergeStats.IOs()

	ng := &generation{
		meta: graph.ImageMeta{
			BlockWords:  g.opts.BlockWords,
			RawLen:      eNew, // an update generation's layout is LayoutFor(e, e, nv)
			EdgesLen:    eNew,
			NumVertices: int64(m.NumVertices),
			Generation:  old.meta.Generation + 1,
			CanonIOs:    old.meta.CanonIOs + mergeIOs,
		},
		layout:   lay,
		path:     genPath,
		rankToID: m.RankToID,
		refs:     1, // the handle's current pointer
	}
	if err := ng.freeze(img); err != nil {
		return UpdateResult{}, err
	}

	// Durability point: log the delta — fsynced — before the generation it
	// produces becomes visible. A crash after the append replays this
	// record on Open; a crash before it loses an update that was never
	// confirmed to the caller. The pre-pack edge words are logged (not the
	// sorted merge input), so replay runs the identical deterministic
	// merge.
	if durable && g.opts.DiskPath != "" {
		if err := g.walAppend(graph.WALRecord{Gen: ng.meta.Generation, Adds: adds, Removes: removes}); err != nil {
			return UpdateResult{}, errors.Join(err, ng.release())
		}
	}

	// Atomic install: new queries pin the new generation; the old one is
	// released when its last in-flight reader drains. Standing queries are
	// snapshotted in the same critical section, so a subscription observes
	// this transition exactly when it registered before the swap.
	g.mu.Lock()
	g.cur = ng
	subs := g.snapshotSubsLocked()
	// The current pointer's reference moves to ng. old cannot drain here:
	// this update still pins it, and its unpin releases a detached old.
	old.refs--
	g.mu.Unlock()

	// Differential deliveries run inside the update (old is pinned until
	// this function returns), anchored on the effective edges the merge
	// scan collected.
	g.deliverDiff(subs, old, ng, m.AddedEdges, m.RemovedEdges)

	return UpdateResult{
		Generation: ng.meta.Generation,
		Added:      m.Added,
		Removed:    m.Removed,
		Vertices:   m.NumVertices,
		Edges:      eNew,
		MergeIOs:   mergeIOs,
	}, nil
}

// packDelta normalizes an edge list into packed words, dropping
// self-loops; sorting and deduplication happen in the merge.
func packDelta(es []Edge) []extmem.Word {
	out := make([]extmem.Word, 0, len(es))
	for _, e := range es {
		if e[0] == e[1] {
			continue
		}
		out = append(out, graph.Pack(e[0], e[1]))
	}
	return out
}
