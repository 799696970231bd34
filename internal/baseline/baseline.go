// Package baseline implements the comparison algorithms from Section 1.1
// of the paper — the pre-existing approaches the paper's algorithms are
// measured against:
//
//   - BlockNestedLoop: triangle enumeration as two pipelined block-nested-
//     loop joins, O(E³/(M²·B)) I/Os (the classical database plan).
//   - EdgeIterator: Menegola-style edge iterator intersecting forward
//     adjacency lists, O(E + E^1.5/B) I/Os.
//   - trienum.Dementiev: sort-based node iterator, O(sort(E^1.5)) I/Os.
//   - trienum.HuTaoChung: the SIGMOD 2013 algorithm, O(E²/(M·B)) I/Os.
//
// All consume graphs in canonical form, honor the same emit contract as
// the paper's algorithms, and take a context (which may be nil) as their
// first argument: a cancelled run returns ctx.Err(), and the rows emitted
// before it are a prefix of the full stream.
package baseline

import (
	"context"

	"repro/internal/ctxutil"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/trienum"
)

// edgeIterCheckEvery is the EdgeIterator cancellation granularity: the
// context is consulted once per this many edges of the outer scan.
const edgeIterCheckEvery = 512

// BlockNestedLoop enumerates triangles with two pipelined block-nested-
// loop joins: E(v1,v2) ⋈ E(v2,v3) produces a wedge stream that is buffered
// in memory and closed against E(v1,v3) one buffer-load at a time. This is
// the O(E³/(M²·B)) plan the introduction says any relational engine could
// run; it is competitive only when E is close to M. ctx is checked between
// the outer build-side chunks — the plan's pass boundaries.
func BlockNestedLoop(ctx context.Context, sp *extmem.Space, g graph.Canonical, emit graph.Emit) (trienum.Info, error) {
	var info trienum.Info
	n := g.Edges.Len()
	if n == 0 {
		return info, ctxutil.Err(ctx)
	}
	cfg := sp.Config()
	chunk := int64(cfg.M / 8)
	if chunk < 4 {
		chunk = 4
	}
	edges := g.Edges

	type wedge struct{ v1, v2, v3 uint32 }

	for lo := int64(0); lo < n; lo += chunk {
		if err := ctxutil.Err(ctx); err != nil {
			return info, err
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		lease := sp.LeaseAtMost(int(hi-lo) * 6)
		// First join operand: chunk of (v1, v2) edges, hashed on v2.
		byMid := make(map[uint32][]uint32, hi-lo)
		for i := lo; i < hi; i++ {
			e := edges.Read(i)
			byMid[graph.V(e)] = append(byMid[graph.V(e)], graph.U(e))
		}
		// Wedge buffer for the second pipelined join.
		wedgeCap := int(chunk)
		wedges := make([]wedge, 0, wedgeCap)
		wedgeLease := sp.LeaseAtMost(wedgeCap * 3)

		closeWedges := func() {
			if len(wedges) == 0 {
				return
			}
			probe := make(map[extmem.Word][]wedge, len(wedges))
			for _, w := range wedges {
				k := graph.PackOrdered(w.v1, w.v3)
				probe[k] = append(probe[k], w)
			}
			for i := int64(0); i < n; i++ {
				e := edges.Read(i)
				for _, w := range probe[e] {
					info.Triangles++
					emit(w.v1, w.v2, w.v3)
				}
			}
			wedges = wedges[:0]
		}

		// Scan the (v2, v3) side, streaming wedges into the buffer.
		for i := int64(0); i < n; i++ {
			e := edges.Read(i)
			mid, far := graph.U(e), graph.V(e)
			for _, v1 := range byMid[mid] {
				wedges = append(wedges, wedge{v1, mid, far})
				if len(wedges) == wedgeCap {
					closeWedges()
				}
			}
		}
		closeWedges()
		wedgeLease.Release()
		lease.Release()
		info.Subproblems++
	}
	return info, nil
}

// EdgeIterator enumerates triangles by intersecting the forward adjacency
// lists of each edge's endpoints (Menegola's external-memory edge
// iterator): O(E + E^1.5/B) I/Os — the E term is the per-edge random
// access into the adjacency index. ctx is checked every
// edgeIterCheckEvery edges of the outer scan.
func EdgeIterator(ctx context.Context, sp *extmem.Space, g graph.Canonical, emit graph.Emit) (trienum.Info, error) {
	var info trienum.Info
	n := g.Edges.Len()
	if n == 0 {
		return info, ctxutil.Err(ctx)
	}
	if err := ctxutil.Err(ctx); err != nil {
		return info, err
	}
	mark := sp.Mark()
	defer sp.Release(mark)

	// Offset index: off[v] .. off[v+1] is v's forward list in the sorted
	// canonical edge extent.
	v := int64(g.NumVertices)
	off := sp.Alloc(v + 1)
	var cur int64
	for r := int64(0); r <= v; r++ {
		for cur < n && int64(graph.U(g.Edges.Read(cur))) < r {
			cur++
		}
		off.Write(r, extmem.Word(cur))
	}

	for i := int64(0); i < n; i++ {
		if i%edgeIterCheckEvery == 0 {
			if err := ctxutil.Err(ctx); err != nil {
				return info, err
			}
		}
		e := g.Edges.Read(i)
		u, w := graph.U(e), graph.V(e)
		// Merge-intersect forward lists of u and w.
		a, aEnd := int64(off.Read(int64(u))), int64(off.Read(int64(u)+1))
		b, bEnd := int64(off.Read(int64(w))), int64(off.Read(int64(w)+1))
		for a < aEnd && b < bEnd {
			x, y := graph.V(g.Edges.Read(a)), graph.V(g.Edges.Read(b))
			switch {
			case x < y:
				a++
			case x > y:
				b++
			default:
				info.Triangles++
				emit(u, w, x)
				a++
				b++
			}
		}
	}
	return info, nil
}
