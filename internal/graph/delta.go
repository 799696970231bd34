package graph

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ctxutil"
	"repro/internal/extmem"
)

// This file is the delta-merge engine behind updatable graph handles: it
// turns the frozen canonicalization artifacts of one generation plus a
// sorted edge delta into the artifacts of the next generation, without
// re-canonicalizing from scratch. The contract is exact equivalence: the
// merged Edges/Degrees/RankToID are byte-for-byte the ones Canonicalize
// would produce for the updated edge set, because every derivation step
// below mirrors the corresponding canonicalization step on merged — not
// re-sorted — inputs:
//
//   - the updated edge set (E \ Remove) ∪ Add comes from one three-way
//     merge scan of the id-sorted streams, so it is the sorted dedup set
//     Canonicalize's step 1 would compute;
//   - degrees change only at delta endpoints, so the new (deg, id)
//     records come from run-length re-encoding the endpoint list under a
//     native O(delta) correction map (step 3's output, without step 2's
//     endpoint sort);
//   - the rank order changes only where (deg, id) records changed, and
//     the surviving records keep their relative order, so the new rank
//     sequence is one merge scan of the old rank order against the
//     removed/inserted records, and every unchanged vertex's new rank is
//     its old rank shifted by the records that moved past it (two native
//     binary searches — no re-sort of the vertex table);
//   - only the final relabeling (steps 5–6) pays sort(E), exactly the
//     two record sorts Canonicalize itself runs there.
//
// Total cost: O(sort(E_delta) + scan(E) + scan(V)) I/Os of merging plus
// the two relabeling sorts — strictly below a full rebuild, which
// additionally pays the raw edge sort, the endpoint-doubling sort, and
// both vertex-table sorts (measured by BenchmarkE18UpdateDelta).

// GenView addresses the previous generation's merge substrate — the four
// canonicalization artifacts located by CanonLayout — through a session
// Space over the generation's frozen core.
type GenView struct {
	// IDEdges is the deduplicated edge set packed by original id, sorted.
	IDEdges extmem.Extent
	// Ends is the sorted endpoint-occurrence list (two words per edge).
	Ends extmem.Extent
	// ByDeg is the (deg<<32|id) vertex records in rank order.
	ByDeg extmem.Extent
	// RankByID is the (id<<32|rank) table in id order.
	RankByID extmem.Extent
}

// Merged carries the next generation's artifacts, living in the merge
// session's scratch until the caller copies them into the new image.
type Merged struct {
	// IDEdges, Ends, ByDeg, RankByID are the next generation's merge
	// substrate (see GenView).
	IDEdges, Ends, ByDeg, RankByID extmem.Extent
	// Degrees is the by-rank degree table (the DegOut content).
	Degrees extmem.Extent
	// Edges is the canonical rank-packed sorted edge set (the EdgeOut
	// content).
	Edges extmem.Extent
	// NumVertices is the updated non-isolated vertex count.
	NumVertices int
	// RankToID maps new ranks to original ids.
	RankToID []uint32
	// Added and Removed count the effective edge changes: edges that were
	// absent and are now present, and vice versa.
	Added, Removed int64
	// AddedEdges and RemovedEdges are the effective changes themselves,
	// packed in original-id space and sorted (the merge scan visits edges
	// in sorted order). They are native O(delta)-word slices collected for
	// differential consumers at no extra I/O; their lengths equal Added
	// and Removed.
	AddedEdges, RemovedEdges []extmem.Word
}

// SortErrFunc sorts single-word records by Identity key, reporting a
// cancellation error; MergeDelta runs all its record sorts through it so
// the caller chooses the engine (and collects per-worker statistics).
type SortErrFunc func(ext extmem.Extent) error

// noRank marks a vrec entry whose vertex did not exist in the previous
// generation.
const noRank = ^extmem.Word(0)

// MergeDelta merges sorted-and-packed add/remove word lists into the
// previous generation's artifacts, producing the next generation's. The
// updated edge set is (old \ removes) ∪ adds: removing an absent edge
// and adding a present one are no-ops, and an edge in both lists ends up
// present. adds and removes may contain duplicates; self-loops must have
// been dropped by the caller.
func MergeDelta(ctx context.Context, sp *extmem.Space, old GenView, adds, removes []extmem.Word, sorter SortErrFunc) (Merged, error) {
	eOld := old.IDEdges.Len()
	nvOld := old.ByDeg.Len()

	// Native merge state is O(delta): the per-endpoint degree corrections
	// plus the removed/inserted vertex records derived from them.
	lease := sp.LeaseAtMost(6*(len(adds)+len(removes)) + 16)
	defer lease.Release()

	// Sort the delta. The streams are consumed with duplicate-skipping
	// cursors, so no separate dedup pass is needed.
	addExt := sp.Alloc(int64(len(adds)))
	addExt.Store(adds)
	if err := sorter(addExt); err != nil {
		return Merged{}, err
	}
	remExt := sp.Alloc(int64(len(removes)))
	remExt.Store(removes)
	if err := sorter(remExt); err != nil {
		return Merged{}, err
	}

	// Merge the updated edge set and collect the degree corrections.
	var out Merged
	es := mergeCursor{ext: old.IDEdges}
	as := mergeCursor{ext: addExt}
	rs := mergeCursor{ext: remExt}
	newIDEdges := sp.Alloc(eOld + int64(len(adds)))
	ddelta := make(map[uint32]int32)
	var eNew int64
	for {
		v, ok := minHead(&es, &as, &rs)
		if !ok {
			break
		}
		inE, inA, inR := es.headIs(v), as.headIs(v), rs.headIs(v)
		present := inA || (inE && !inR)
		if present {
			newIDEdges.Write(eNew, v)
			eNew++
		}
		if present && !inE {
			out.Added++
			out.AddedEdges = append(out.AddedEdges, v)
			ddelta[U(v)]++
			ddelta[V(v)]++
		} else if !present && inE {
			out.Removed++
			out.RemovedEdges = append(out.RemovedEdges, v)
			ddelta[U(v)]--
			ddelta[V(v)]--
		}
		es.skipPast(v)
		as.skipPast(v)
		rs.skipPast(v)
	}
	if err := ctxutil.Err(ctx); err != nil {
		return Merged{}, err
	}

	// Changed vertices: endpoints whose degree actually moved. (An id
	// that gained one edge and lost another keeps its record.)
	changed := make([]uint32, 0, len(ddelta))
	for id, dd := range ddelta {
		if dd != 0 {
			changed = append(changed, id)
		} else {
			delete(ddelta, id)
		}
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i] < changed[j] })

	// Re-derive the vertex table in id order: run-length decode the old
	// endpoint list (lockstep with the old rank table, which lists the
	// same ids in the same order), apply the corrections, and emit the
	// new endpoint list plus a scratch record per surviving vertex —
	// (newdeg<<32|id, old rank) — for the rank re-derivation below.
	newEnds := sp.Alloc(2 * eNew)
	vrec := sp.Alloc(2 * (nvOld + int64(len(changed))))
	var removedRecs, insertedRecs []extmem.Word
	var nvNew, endPos int64
	ei, ki := int64(0), int64(0)
	ci := 0
	for ei < old.Ends.Len() || ci < len(changed) {
		var id uint32
		fromOld := false
		if ei < old.Ends.Len() {
			id = uint32(old.Ends.Read(ei))
			fromOld = true
		}
		if ci < len(changed) && (!fromOld || changed[ci] < id) {
			id = changed[ci]
			fromOld = ei < old.Ends.Len() && uint32(old.Ends.Read(ei)) == id
		}
		var oldDeg int64
		oldRank := noRank
		if fromOld {
			for ei < old.Ends.Len() && uint32(old.Ends.Read(ei)) == id {
				oldDeg++
				ei++
			}
			rec := old.RankByID.Read(ki)
			ki++
			if uint32(rec>>32) != id {
				panic(fmt.Sprintf("graph: rank table out of step: id %d vs record %d", id, rec>>32))
			}
			oldRank = extmem.Word(uint32(rec))
		}
		if ci < len(changed) && changed[ci] == id {
			ci++
		}
		newDeg := oldDeg + int64(ddelta[id])
		if newDeg < 0 {
			panic(fmt.Sprintf("graph: negative merged degree for id %d", id))
		}
		if newDeg > 0 {
			vrec.Write(2*nvNew, extmem.Word(newDeg)<<32|extmem.Word(id))
			vrec.Write(2*nvNew+1, oldRank)
			nvNew++
			for j := int64(0); j < newDeg; j++ {
				newEnds.Write(endPos, extmem.Word(id))
				endPos++
			}
		}
		if ddelta[id] != 0 {
			if oldDeg > 0 {
				removedRecs = append(removedRecs, extmem.Word(oldDeg)<<32|extmem.Word(id))
			}
			if newDeg > 0 {
				insertedRecs = append(insertedRecs, extmem.Word(newDeg)<<32|extmem.Word(id))
			}
		}
	}
	if endPos != 2*eNew {
		panic(fmt.Sprintf("graph: merged degree sum %d != 2*%d edges", endPos, eNew))
	}
	sortWords(removedRecs)
	sortWords(insertedRecs)
	if err := ctxutil.Err(ctx); err != nil {
		return Merged{}, err
	}

	// New rank order: the old rank order minus the removed records plus
	// the inserted ones, merged at their sorted positions. Vertex records
	// are unique (the id is in the low bits), so strict comparison
	// places every insertion exactly.
	newByDeg := sp.Alloc(nvNew)
	newDegrees := sp.Alloc(nvNew)
	rankToID := make([]uint32, nvNew)
	changedRank := make(map[uint32]uint32, len(changed))
	var r int64
	ip := 0
	emit := func(w extmem.Word) {
		newByDeg.Write(r, w)
		newDegrees.Write(r, w>>32)
		rankToID[r] = uint32(w)
		if ddelta[uint32(w)] != 0 {
			changedRank[uint32(w)] = uint32(r)
		}
		r++
	}
	removedSet := make(map[extmem.Word]struct{}, len(removedRecs))
	for _, w := range removedRecs {
		removedSet[w] = struct{}{}
	}
	for i := int64(0); i < nvOld; i++ {
		w := old.ByDeg.Read(i)
		for ip < len(insertedRecs) && insertedRecs[ip] < w {
			emit(insertedRecs[ip])
			ip++
		}
		if _, rm := removedSet[w]; rm {
			continue
		}
		emit(w)
	}
	for ; ip < len(insertedRecs); ip++ {
		emit(insertedRecs[ip])
	}
	if r != nvNew {
		panic(fmt.Sprintf("graph: rank merge produced %d vertices, want %d", r, nvNew))
	}

	// New id→rank table, in id order (so it is already "sorted by id" as
	// Canonicalize leaves it): a changed vertex's rank was recorded
	// during the rank merge; an unchanged vertex's record w kept its
	// place relative to every other survivor, so its rank moved by
	// exactly the inserted-minus-removed records ordered below w.
	newRankByID := sp.Alloc(nvNew)
	for k := int64(0); k < nvNew; k++ {
		w := vrec.Read(2 * k)
		id := uint32(w)
		var rank uint32
		if ddelta[id] != 0 {
			rank = changedRank[id]
		} else {
			oldRank := int64(uint32(vrec.Read(2*k + 1)))
			rank = uint32(oldRank - countBelow(removedRecs, w) + countBelow(insertedRecs, w))
		}
		newRankByID.Write(k, extmem.Word(id)<<32|extmem.Word(rank))
	}
	if err := ctxutil.Err(ctx); err != nil {
		return Merged{}, err
	}

	// Relabel the merged edges into rank space — the mirror of
	// Canonicalize's steps 5 and 6, and the only part of the merge that
	// sorts at sort(E) scale.
	relabel := func(src extmem.Extent) extmem.Extent {
		dst := sp.Alloc(src.Len())
		var ri int64
		for i := int64(0); i < src.Len(); i++ {
			w := src.Read(i)
			key := uint32(w >> 32)
			for uint32(newRankByID.Read(ri)>>32) != key {
				ri++
			}
			rank := uint32(newRankByID.Read(ri))
			dst.Write(i, extmem.Word(uint32(w))<<32|extmem.Word(rank))
		}
		return dst
	}
	edges := newIDEdges.Prefix(eNew)
	pass1 := relabel(edges)
	if err := sorter(pass1); err != nil {
		return Merged{}, err
	}
	pass2 := relabel(pass1)
	canon := sp.Alloc(eNew)
	for i := int64(0); i < eNew; i++ {
		w := pass2.Read(i)
		canon.Write(i, Pack(uint32(w>>32), uint32(w)))
	}
	if err := sorter(canon); err != nil {
		return Merged{}, err
	}

	out.IDEdges = edges
	out.Ends = newEnds
	out.ByDeg = newByDeg
	out.RankByID = newRankByID
	out.Degrees = newDegrees
	out.Edges = canon
	out.NumVertices = int(nvNew)
	out.RankToID = rankToID
	return out, nil
}

// mergeCursor walks a sorted extent, skipping duplicate records.
type mergeCursor struct {
	ext extmem.Extent
	i   int64
}

func (c *mergeCursor) head() (extmem.Word, bool) {
	if c.i >= c.ext.Len() {
		return 0, false
	}
	return c.ext.Read(c.i), true
}

func (c *mergeCursor) headIs(v extmem.Word) bool {
	w, ok := c.head()
	return ok && w == v
}

func (c *mergeCursor) skipPast(v extmem.Word) {
	for {
		w, ok := c.head()
		if !ok || w != v {
			return
		}
		c.i++
	}
}

// minHead returns the smallest head value across the cursors.
func minHead(cs ...*mergeCursor) (extmem.Word, bool) {
	var best extmem.Word
	found := false
	for _, c := range cs {
		if w, ok := c.head(); ok && (!found || w < best) {
			best, found = w, true
		}
	}
	return best, found
}

func sortWords(ws []extmem.Word) {
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
}

// countBelow counts the records of the sorted slice strictly below w.
func countBelow(ws []extmem.Word, w extmem.Word) int64 {
	return int64(sort.Search(len(ws), func(i int) bool { return ws[i] >= w }))
}
