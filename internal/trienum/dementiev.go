package trienum

import (
	"context"

	"repro/internal/ctxutil"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// dementievCheckEvery is the merge-pass cancellation granularity: the
// context is consulted once per this many candidate records, so a
// cancellation lands within O(1) emissions instead of after the pass.
const dementievCheckEvery = 1024

// DementievSortMerge enumerates all triangles of the edge segment seg with
// the sort-based node iterator from Dementiev's thesis, the base case of
// the cache-oblivious recursion: generate every wedge (pair of edges
// sharing their smaller endpoint), sort the wedges, and merge them against
// the edge list to find the closing edges. O(sort(E^1.5)) I/Os.
//
// seg is not modified (the subroutine sorts a copy). filter, if non-nil,
// vetoes emissions. sorter selects cache-aware or oblivious sorting. ctx
// (which may be nil) is checked at the pass boundaries — after the edge
// sort, after wedge generation, after the wedge sort — and periodically
// inside the closing merge scan. On cancellation it returns ctx.Err(); the
// triangles emitted before it are a prefix of the full stream.
func DementievSortMerge(ctx context.Context, sp *extmem.Space, seg extmem.Extent, sorter graph.SortFunc, filter func(a, b, c uint32) bool, emit graph.Emit) error {
	n := seg.Len()
	if n < 3 {
		return ctxutil.Err(ctx)
	}
	if err := ctxutil.Err(ctx); err != nil {
		return err
	}
	mark := sp.Mark()
	defer sp.Release(mark)

	edges := sp.Alloc(n)
	seg.CopyTo(edges)
	sorter(edges, 1, emsort.Identity)
	if err := ctxutil.Err(ctx); err != nil {
		return err
	}

	// Count wedges: for a vertex with forward degree d, C(d,2) candidate
	// pairs. In canonical (degree) order Σ C(d⁺,2) = O(E^1.5).
	var wedges int64
	forEachGroup(edges, func(lo, hi int64) {
		d := hi - lo
		wedges += d * (d - 1) / 2
	})
	if wedges == 0 {
		return nil
	}

	// Candidate records: (packed {u,w}, cone v), two words each.
	cand := sp.Alloc(2 * wedges)
	var out int64
	forEachGroup(edges, func(lo, hi int64) {
		for i := lo; i < hi; i++ {
			ei := edges.Read(i)
			v, u := graph.U(ei), graph.V(ei)
			for j := i + 1; j < hi; j++ {
				w := graph.V(edges.Read(j))
				cand.Write(out, graph.PackOrdered(u, w))
				cand.Write(out+1, extmem.Word(v))
				out += 2
			}
		}
	})
	if err := ctxutil.Err(ctx); err != nil {
		return err
	}
	sorter(cand, 2, emsort.Identity)
	if err := ctxutil.Err(ctx); err != nil {
		return err
	}

	// Merge candidates against the edge list; equal keys close triangles.
	var ei int64
	for ci := int64(0); ci < cand.Len(); ci += 2 {
		if ci%(2*dementievCheckEvery) == 0 {
			if err := ctxutil.Err(ctx); err != nil {
				return err
			}
		}
		key := cand.Read(ci)
		for ei < n && edges.Read(ei) < key {
			ei++
		}
		if ei < n && edges.Read(ei) == key {
			v := uint32(cand.Read(ci + 1))
			u, w := graph.U(key), graph.V(key)
			// v < u < w: u, w are forward neighbors of v.
			if filter == nil || filter(v, u, w) {
				emit(v, u, w)
			}
		}
	}
	return nil
}

// forEachGroup calls fn(lo, hi) for every maximal run of edges sharing
// their smaller endpoint in the sorted extent.
func forEachGroup(edges extmem.Extent, fn func(lo, hi int64)) {
	n := edges.Len()
	var lo int64
	for lo < n {
		v := graph.U(edges.Read(lo))
		hi := lo + 1
		for hi < n && graph.U(edges.Read(hi)) == v {
			hi++
		}
		fn(lo, hi)
		lo = hi
	}
}
