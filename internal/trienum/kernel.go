package trienum

import (
	"context"

	"repro/internal/ctxutil"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// kernel implements Lemma 2 (Hu, Tao and Chung, SIGMOD 2013, step 2 of
// Algorithm 1): enumerate every triangle {v, u, w} with v < u < w whose
// pivot edge {u, w} lies in pivots and whose cone edges {v, u}, {v, w} lie
// in edges. I/O complexity O(E/B + E'·E/(M·B)) where E' = |pivots|.
//
// edges must be sorted canonically (so each cone vertex's forward
// adjacency list is consecutive). pivots need not be sorted. memEdges
// caps how many pivot edges are loaded per iteration; pass 0 to size it
// automatically from the Space's configured memory.
//
// filter, if non-nil, can veto an emission (used by the color-coded
// algorithms to keep each triangle in exactly one subproblem).
//
// ctx (which may be nil) is checked between pivot chunks — each chunk is
// one full scan of the edge set, the algorithm's natural pass boundary —
// and a cancelled run returns ctx.Err(). The kernel touches no state
// outside sp, so concurrent invocations on distinct Spaces (the worker
// shards of parallel.go) are safe; filter and emit must then be confined
// or pure.
func kernel(ctx context.Context, sp *extmem.Space, edges, pivots extmem.Extent, memEdges int, filter func(v, u, w uint32) bool, emit graph.Emit) error {
	nPivots := pivots.Len()
	if nPivots == 0 || edges.Len() == 0 {
		return ctxutil.Err(ctx)
	}
	if memEdges <= 0 {
		// The constant α of the paper: pivot chunks of αM edges. The
		// native chunk state (pivot set, Γ_mem set, per-vertex list) costs
		// about six words per pivot edge, leased below.
		memEdges = (sp.Config().M - sp.Leased()) / 8
		if memEdges < 16 {
			memEdges = 16
		}
	}

	for lo := int64(0); lo < nPivots; lo += int64(memEdges) {
		if err := ctxutil.Err(ctx); err != nil {
			return err
		}
		hi := lo + int64(memEdges)
		if hi > nPivots {
			hi = nPivots
		}
		kernelChunk(sp, edges, pivots.Slice(lo, hi), filter, emit)
	}
	return nil
}

// kernelChunk processes one memory-resident chunk of pivot edges against a
// full scan of the edge set.
func kernelChunk(sp *extmem.Space, edges, chunk extmem.Extent, filter func(v, u, w uint32) bool, emit graph.Emit) {
	release := sp.LeaseAtMost(int(chunk.Len()) * 6)
	defer release()

	// Load the chunk: the pivot set and Γ_mem, the vertices it touches.
	pivotList := make([]extmem.Word, chunk.Len())
	chunk.Load(pivotList)
	pivotSet := make(map[extmem.Word]struct{}, len(pivotList))
	gammaMem := make(map[uint32]struct{}, 2*len(pivotList))
	for _, e := range pivotList {
		pivotSet[e] = struct{}{}
		gammaMem[graph.U(e)] = struct{}{}
		gammaMem[graph.V(e)] = struct{}{}
	}

	// Scan the edge set grouped by cone vertex v; for each group compute
	// Γ_v = {u : (v,u) ∈ edges, u ∈ Γ_mem} and enumerate pivot edges with
	// both endpoints in Γ_v. Within a group we choose the cheaper of the
	// two enumeration orders: all pairs of Γ_v (|Γ_v|² work) or all chunk
	// pivots (|chunk| work).
	var (
		curV   uint32
		lv     []uint32 // Γ_v in ascending order (edges are sorted)
		lvSet  = make(map[uint32]struct{})
		inited bool
	)
	flush := func() {
		if len(lv) < 2 {
			return
		}
		if int64(len(lv))*int64(len(lv)) <= int64(len(pivotList)) {
			for i := 0; i < len(lv); i++ {
				for j := i + 1; j < len(lv); j++ {
					u, w := lv[i], lv[j]
					if _, hit := pivotSet[graph.PackOrdered(u, w)]; hit {
						if filter == nil || filter(curV, u, w) {
							emit(curV, u, w)
						}
					}
				}
			}
			return
		}
		for _, e := range pivotList {
			u, w := graph.U(e), graph.V(e)
			if _, ok := lvSet[u]; !ok {
				continue
			}
			if _, ok := lvSet[w]; !ok {
				continue
			}
			if filter == nil || filter(curV, u, w) {
				emit(curV, u, w)
			}
		}
	}
	n := edges.Len()
	for i := int64(0); i < n; i++ {
		e := edges.Read(i)
		v, u := graph.U(e), graph.V(e)
		if !inited || v != curV {
			flush()
			curV = v
			inited = true
			lv = lv[:0]
			clear(lvSet)
		}
		if _, ok := gammaMem[u]; ok {
			lv = append(lv, u)
			lvSet[u] = struct{}{}
		}
	}
	flush()
}
