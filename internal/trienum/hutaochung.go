package trienum

import (
	"context"

	"repro/internal/ctxutil"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// HuTaoChung enumerates all triangles with the algorithm of Hu, Tao and
// Chung (SIGMOD 2013), the strongest previously published baseline: the
// Lemma 2 kernel applied with pivot set E' = E, using O(E/B + E²/(M·B))
// I/Os — exactly E/M scans of the edge set. The paper's contribution is
// beating this by the factor min(sqrt(E/M), sqrt(M)).
//
// ctx (which may be nil) is checked between the kernel's pivot chunks —
// the algorithm's pass boundaries. On cancellation it returns ctx.Err();
// the triangles emitted before it are a prefix of the full stream.
func HuTaoChung(ctx context.Context, sp *extmem.Space, g graph.Canonical, emit graph.Emit) (Info, error) {
	var info Info
	emit = countingEmit(&info, emit)
	if g.Edges.Len() == 0 {
		return info, ctxutil.Err(ctx)
	}
	err := kernel(ctx, sp, g.Edges, g.Edges, 0, nil, emit)
	info.Subproblems = 1
	return info, err
}

// Dementiev enumerates all triangles with the sort-based algorithm from
// Dementiev's thesis: O(sort(E^1.5)) I/Os, no dependence on M beyond
// sorting. One of the pre-2013 baselines in Section 1.1. ctx (which may be
// nil) cancels it at the sort-merge pass boundaries (see
// DementievSortMerge).
func Dementiev(ctx context.Context, sp *extmem.Space, g graph.Canonical, emit graph.Emit) (Info, error) {
	var info Info
	emit = countingEmit(&info, emit)
	if g.Edges.Len() == 0 {
		return info, ctxutil.Err(ctx)
	}
	err := DementievSortMerge(ctx, sp, g.Edges, emsort.SortRecords, nil, emit)
	return info, err
}
