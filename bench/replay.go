package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/diff"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/subgraph"
	"repro/internal/trienum"
)

// The traced replay. Each operation is re-executed by calling the
// layers' functions from here, in the order the repro package composes
// them (Build in graph.go, queries in query.go, Update in update.go,
// standing-query deliveries in subscribe.go), with a span around every
// call into a layer. Because the calls and their arguments are the
// library's own, the replay reproduces the library's exact block-I/O
// counts; the workloads check that it does.

// The simulated machine every workload runs on: M = 2^12 words,
// B = 2^6 words.
const (
	memWords   = 1 << 12
	blockWords = 1 << 6
)

func machineConfig(native bool) extmem.Config {
	return extmem.Config{M: memWords, B: blockWords, Native: native}
}

func roundUpBlocks(words int64) int64 {
	return (words + blockWords - 1) &^ (blockWords - 1)
}

// image is one frozen canonical graph image the replay laid down itself:
// the counterpart of the library's generation.
type image struct {
	core      extmem.Core
	file      *extmem.FileCore
	path      string // update images are files of their own, removed on close
	coreWords int64
	layout    graph.CanonLayout
	nv        int
	edgesBase int64
	edgesLen  int64
	degBase   int64
	degLen    int64
	rankToID  []uint32
	canonIOs  uint64
}

func (im *image) canonical(sp *extmem.Space) graph.Canonical {
	return graph.Canonical{
		Edges:       sp.ExtentAt(im.edgesBase, im.edgesLen),
		NumVertices: im.nv,
		Degrees:     sp.ExtentAt(im.degBase, im.degLen),
		RankToID:    im.rankToID,
	}
}

func (im *image) close() error {
	var err error
	if im.file != nil {
		err = im.file.Close()
	}
	if im.path != "" {
		if rmErr := os.Remove(im.path); err == nil {
			err = rmErr
		}
	}
	return err
}

func sumStats(ws []extmem.Stats) extmem.Stats {
	var st extmem.Stats
	for _, w := range ws {
		st.Add(w)
	}
	return st
}

// replayBuild lays down the canonical image of edges like repro.Build:
// a Space (file-backed when path is set), the raw edge list, the
// canonicalization with the parallel sorts at workers, and the freeze.
func replayBuild(tr *tracer, edges [][2]uint32, workers int, path string) (*image, error) {
	root := tr.begin(nil, "repro", "repro.build")
	s := tr.begin(root, "extmem", "extmem.new_space")
	cfg := machineConfig(false)
	var sp *extmem.Space
	if path != "" {
		var err error
		if sp, err = extmem.NewFileSpace(cfg, path); err != nil {
			return nil, err
		}
	} else {
		sp = extmem.NewSpace(cfg)
	}
	s.end(nil)

	s = tr.begin(root, "graph", "graph.edgelist_write")
	var el graph.EdgeList
	for _, e := range edges {
		el.Add(e[0], e[1])
	}
	raw := el.Write(sp)
	s.end(func(x *span) { x.Units = uint64(el.Len()) })

	canon := tr.begin(root, "graph", "graph.canonicalize").withAlloc()
	var canonWS []extmem.Stats
	sorter := func(ext extmem.Extent, stride int, key emsort.Key) {
		ss := tr.begin(canon, "emsort", "emsort.canon_sort")
		ws := emsort.ParallelSortRecords(ext, stride, key, workers)
		canonWS = extmem.AddStatsVec(canonWS, ws)
		ss.end(func(x *span) { x.Units, x.IOs = uint64(ext.Len()), sumStats(ws).IOs() })
	}
	cg := graph.Canonicalize(sp, raw, sorter)
	st := sp.Stats()
	st.Add(sumStats(canonWS))
	canon.end(func(x *span) { x.IOs = st.IOs() })

	im := &image{
		canonIOs:  st.IOs(),
		nv:        cg.NumVertices,
		edgesBase: cg.Edges.Base(),
		edgesLen:  cg.Edges.Len(),
		degBase:   cg.Degrees.Base(),
		degLen:    cg.Degrees.Len(),
		rankToID:  cg.RankToID,
	}
	freeze := tr.begin(root, "graph", "graph.freeze")
	mark := sp.Mark()
	im.layout = graph.LayoutFor(int64(el.Len()), im.edgesLen, int64(im.nv), blockWords)
	if im.layout.Mark != mark || im.layout.EdgeOut != im.edgesBase {
		sp.Close()
		return nil, fmt.Errorf("replayed build: layout drift (mark %d/%d)", im.layout.Mark, mark)
	}
	im.coreWords = roundUpBlocks(mark)
	if path != "" {
		sp.Flush()
		if err := sp.Sync(); err != nil {
			sp.Close()
			return nil, err
		}
		if err := sp.Close(); err != nil {
			return nil, err
		}
		meta := graph.ImageMeta{BlockWords: blockWords, RawLen: int64(el.Len()), EdgesLen: im.edgesLen,
			NumVertices: int64(im.nv), CanonIOs: im.canonIOs}
		if err := writeFooter(path, im.coreWords, meta); err != nil {
			return nil, err
		}
		fc, err := extmem.NewFileCore(path)
		if err != nil {
			return nil, err
		}
		im.core, im.file = fc, fc
	} else {
		im.core = extmem.WordsCore(sp.Snapshot(sp.ExtentAt(0, mark)))
		sp.Close()
	}
	freeze.end(nil)
	root.end(func(x *span) { x.IOs = im.canonIOs })
	return im, nil
}

// writeFooter stamps the durable image footer past the image words, as
// a disk-backed Build does.
func writeFooter(path string, offsetWords int64, meta graph.ImageMeta) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(meta.EncodeFooter(), offsetWords*8); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// queryKind is what a replayed query enumerates.
type queryKind int

const (
	kindTriangles queryKind = iota // plain CacheAware triangle stream
	kindOrdered                    // CacheAware triangles, delivered in canonical order
	kindCliques4                   // 4-cliques
)

// replayQuery is one query for replay: the session machine and the
// query parameters.
type replayQuery struct {
	kind    queryKind
	seed    uint64
	workers int
	native  bool
	scratch string // spill file of a simulated session on a disk graph
}

// queryOutcome is what a replayed query reports, as repro.Result would.
type queryOutcome struct {
	matches uint64
	stats   extmem.Stats
}

// replay runs q against im like Graph.TrianglesFunc / CliquesFunc:
// a session over the image, the kernel with ranks mapped back to ids,
// the final flush, and ordered delivery. parent is the operation's span.
func (q replayQuery) replay(tr *tracer, parent *active, im *image, emit func(vs []uint32)) (queryOutcome, error) {
	var out queryOutcome
	s := tr.begin(parent, "extmem", "extmem.session")
	sp, err := extmem.NewSessionSpace(machineConfig(q.native), im.core, im.coreWords, q.scratch)
	s.end(nil)
	if err != nil {
		return out, err
	}
	defer sp.Close()
	cg := im.canonical(sp)

	var emitNs int64
	deliver := func(vs []uint32) {
		if parent == nil {
			emit(vs)
			return
		}
		t0 := time.Now()
		emit(vs)
		emitNs += int64(time.Since(t0))
	}
	var ord []uint32
	tri := make([]uint32, 3)
	mapped := make([]uint32, 4)

	// The kernel span covers the enumeration, the client callbacks it
	// made (EmitNs), and the final flush.
	var ks *active
	var workerStats []extmem.Stats
	var facts func(x *span)
	switch q.kind {
	case kindTriangles, kindOrdered:
		ks = tr.begin(parent, "trienum", "trienum.cacheaware")
		var info trienum.Info
		info, workerStats, err = trienum.CacheAwareParallel(sp, cg, q.seed, trienum.Exec{Workers: q.workers}, func(a, b, c uint32) {
			t := graph.MakeTriple(cg.RankToID[a], cg.RankToID[b], cg.RankToID[c])
			if q.kind == kindOrdered {
				ord = append(ord, t.V1, t.V2, t.V3)
				return
			}
			tri[0], tri[1], tri[2] = t.V1, t.V2, t.V3
			deliver(tri)
		})
		out.matches = info.Triangles
		facts = func(x *span) {
			x.Colors, x.Subprobs, x.HighDeg = info.Colors, info.Subproblems, info.HighDegVertices
			x.Skew = workerSkew(workerStats)
		}
	default:
		ks = tr.begin(parent, "subgraph", "subgraph.kclique")
		var info subgraph.Info
		info, err = subgraph.KClique(nil, sp, cg, 4, q.seed, func(vs []uint32) {
			m := mapped[:len(vs)]
			for i, v := range vs {
				m[i] = cg.RankToID[v]
			}
			sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
			deliver(m)
		})
		out.matches = info.Cliques
		facts = func(x *span) { x.Colors, x.Subprobs, x.MaxSub = info.Colors, info.Subproblems, info.MaxSubproblem }
	}
	if err == nil {
		sp.Flush()
	}
	if !q.native {
		// A native session reports zero Stats and the library drops its
		// worker stats, per the Result contract.
		out.stats = sp.Stats()
		out.stats.Add(sumStats(workerStats))
	}
	ks.end(func(x *span) {
		facts(x)
		st := out.stats
		x.IOs, x.Words, x.EmitNs = st.IOs(), st.WordReads+st.WordWrites, emitNs
		x.PeakLease, x.PeakDisk = st.PeakLease, st.PeakAlloc
	})
	if err != nil {
		return out, err
	}
	if q.kind == kindOrdered {
		ds := tr.begin(parent, "repro", "repro.ordered_deliver")
		emitNs = 0
		cluster.SortTuples(ord, 3)
		for i := 0; i+3 <= len(ord); i += 3 {
			deliver(ord[i : i+3])
		}
		ds.end(func(x *span) { x.Units, x.EmitNs = uint64(len(ord)/3), emitNs })
	}
	return out, nil
}

// workerSkew is the largest worker's block I/Os over the mean worker's.
func workerSkew(ws []extmem.Stats) float64 {
	if len(ws) == 0 {
		return 0
	}
	var sum, top uint64
	for _, w := range ws {
		sum += w.IOs()
		top = max(top, w.IOs())
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(ws)) / float64(sum)
}

// packDelta packs an edge list like the library's Update does.
func packDelta(es [][2]uint32) []extmem.Word {
	out := make([]extmem.Word, 0, len(es))
	for _, e := range es {
		if e[0] != e[1] {
			out = append(out, graph.Pack(e[0], e[1]))
		}
	}
	return out
}

// updateOutcome is what a replayed update reports: the new image, the
// merge cost split by where it was paid, and the effective edge change.
type updateOutcome struct {
	next         *image
	mergeIOs     uint64        // the UpdateResult.MergeIOs the library reports
	sessionIOs   uint64        // merge scans, sort coordination, copy-out reads
	sortIOs      uint64        // the delta sorts' worker I/Os
	imageIOs     uint64        // writing the new image
	added        []extmem.Word // effective changes, id space
	removed      []extmem.Word
	addedCount   int64
	removedCount int64
}

// replayUpdate merges one delta into old like Graph.Update: a session
// over the old image, graph.MergeDelta with the parallel sorts, and the
// new image laid down at the graph.LayoutFor addresses. nextPath names
// the new image's file ("" keeps it in memory); scratch the merge spill.
func replayUpdate(tr *tracer, parent *active, old *image, add, remove [][2]uint32, workers int, nextPath, scratch string) (updateOutcome, error) {
	var out updateOutcome
	cfg := machineConfig(false)
	s := tr.begin(parent, "extmem", "extmem.session")
	sp, err := extmem.NewSessionSpace(cfg, old.core, old.coreWords, scratch)
	s.end(nil)
	if err != nil {
		return out, err
	}
	defer sp.Close()

	merge := tr.begin(parent, "graph", "graph.merge_delta")
	var mergeWS []extmem.Stats
	sorter := func(ext extmem.Extent) error {
		ss := tr.begin(merge, "emsort", "emsort.merge_sort")
		ws, err := emsort.ParallelSortRecordsCtx(context.Background(), ext, 1, emsort.Identity, workers)
		mergeWS = extmem.AddStatsVec(mergeWS, ws)
		ss.end(func(x *span) { x.Units, x.IOs = uint64(ext.Len()), sumStats(ws).IOs() })
		return err
	}
	view := graph.GenView{
		IDEdges:  sp.ExtentAt(old.layout.Dedup, old.edgesLen),
		Ends:     sp.ExtentAt(old.layout.Ends, 2*old.edgesLen),
		ByDeg:    sp.ExtentAt(old.layout.ByDeg, int64(old.nv)),
		RankByID: sp.ExtentAt(old.layout.RankByID, int64(old.nv)),
	}
	m, err := graph.MergeDelta(context.Background(), sp, view, packDelta(add), packDelta(remove), sorter)
	mergeSessionIOs := sp.Stats().IOs()
	merge.end(func(x *span) { x.IOs = mergeSessionIOs })
	if err != nil {
		return out, err
	}
	if m.Added == 0 && m.Removed == 0 {
		return out, fmt.Errorf("replayed update: delta had no effect")
	}

	w := tr.begin(parent, "graph", "graph.image_write")
	eNew, nvNew := m.Edges.Len(), int64(m.NumVertices)
	lay := graph.LayoutFor(eNew, eNew, nvNew, blockWords)
	var img *extmem.Space
	if nextPath != "" {
		if img, err = extmem.NewFileSpace(cfg, nextPath); err != nil {
			return out, err
		}
	} else {
		img = extmem.NewSpace(cfg)
	}
	img.Alloc(lay.Mark)
	m.IDEdges.CopyTo(img.ExtentAt(lay.Dedup, m.IDEdges.Len()))
	m.Ends.CopyTo(img.ExtentAt(lay.Ends, m.Ends.Len()))
	m.ByDeg.CopyTo(img.ExtentAt(lay.ByDeg, m.ByDeg.Len()))
	m.RankByID.CopyTo(img.ExtentAt(lay.RankByID, m.RankByID.Len()))
	m.Degrees.CopyTo(img.ExtentAt(lay.DegOut, m.Degrees.Len()))
	m.Edges.CopyTo(img.ExtentAt(lay.EdgeOut, m.Edges.Len()))
	img.Flush()

	out.sessionIOs = sp.Stats().IOs()
	out.sortIOs = sumStats(mergeWS).IOs()
	out.imageIOs = img.Stats().IOs()
	out.mergeIOs = out.sessionIOs + out.sortIOs + out.imageIOs
	next := &image{
		path:      nextPath,
		coreWords: roundUpBlocks(lay.Mark),
		layout:    lay,
		nv:        m.NumVertices,
		edgesBase: lay.EdgeOut,
		edgesLen:  eNew,
		degBase:   lay.DegOut,
		degLen:    nvNew,
		rankToID:  m.RankToID,
		canonIOs:  old.canonIOs + out.mergeIOs,
	}
	if nextPath != "" {
		if err := img.Close(); err != nil {
			return out, err
		}
		fc, err := extmem.NewFileCore(nextPath)
		if err != nil {
			os.Remove(nextPath)
			return out, err
		}
		next.core, next.file = fc, fc
	} else {
		next.core = extmem.WordsCore(img.Snapshot(img.ExtentAt(0, lay.Mark)))
		img.Close()
	}
	// The image write pays the copy-out reads on the session and the
	// writes of the new image, so merge + sorts + image write = MergeIOs.
	w.end(func(x *span) { x.IOs = out.sessionIOs - mergeSessionIOs + out.imageIOs })
	out.next = next
	out.added, out.removed = m.AddedEdges, m.RemovedEdges
	out.addedCount, out.removedCount = m.Added, m.Removed
	return out, nil
}

// replayDiffPass runs one differential pass like the library's
// subscription delivery: a scratch-free session over im, the id-space
// delta edges mapped to ranks, and diff.Enumerate. It returns the
// digest of the changed matches (ids ascending) and the pass's stats.
func replayDiffPass(tr *tracer, parent *active, im *image, deltaIDs []extmem.Word, spec diff.Spec, workers int) (tupleSet, extmem.Stats, error) {
	var set tupleSet
	if len(deltaIDs) == 0 {
		return set, extmem.Stats{}, nil
	}
	name := "diff.triangles"
	if spec.K == 4 {
		name = "diff.cliques"
	}
	ps := tr.begin(parent, "diff", name)
	sp, err := extmem.NewSessionSpace(machineConfig(false), im.core, im.coreWords, "")
	if err != nil {
		return set, extmem.Stats{}, err
	}
	defer sp.Close()
	idToRank := make(map[uint32]uint32, len(im.rankToID))
	for r, id := range im.rankToID {
		idToRank[id] = uint32(r)
	}
	anchors := make([]extmem.Word, 0, len(deltaIDs))
	for _, e := range deltaIDs {
		u, okU := idToRank[graph.U(e)]
		v, okV := idToRank[graph.V(e)]
		if !okU || !okV {
			return set, extmem.Stats{}, fmt.Errorf("replayed diff: delta edge {%d, %d} not in the image", graph.U(e), graph.V(e))
		}
		anchors = append(anchors, graph.Pack(u, v))
	}
	ids := make([]uint32, spec.K)
	_, err = diff.Enumerate(nil, sp, im.canonical(sp), anchors, spec, workers, func(rverts []uint32) {
		for i, r := range rverts {
			ids[i] = im.rankToID[r]
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		set.add(ids...)
	})
	if err != nil {
		return set, extmem.Stats{}, err
	}
	sp.Flush()
	st := sp.Stats()
	ps.end(func(x *span) { x.IOs, x.Units = st.IOs(), uint64(len(anchors)) })
	return set, st, nil
}
