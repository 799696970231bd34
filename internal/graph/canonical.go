package graph

import (
	"repro/internal/emsort"
	"repro/internal/extmem"
)

// Canonical is a graph in the paper's working representation (Section
// 1.3): vertices renamed to their degree rank (ties broken by original
// id), each edge {u, v} stored as one word with u < v in rank order, and
// the edge extent sorted lexicographically — so for every vertex the list
// of neighbors that come after it in the ordering is stored consecutively.
type Canonical struct {
	// Edges is the sorted canonical edge extent.
	Edges extmem.Extent
	// NumVertices is the number of non-isolated vertices (= number of
	// ranks in use).
	NumVertices int
	// Degrees is an extent of NumVertices words; Degrees.Read(r) is the
	// degree of rank r. Because ranks are assigned in degree order, the
	// sequence is nondecreasing.
	Degrees extmem.Extent
	// RankToID maps ranks back to original vertex ids so emitted
	// triangles can be reported in the caller's id space. It is a native
	// O(V)-word convenience index for API boundaries; the enumeration
	// algorithms themselves never touch it.
	RankToID []uint32
}

// SortFunc sorts fixed-stride records of an extent by key of word 0; both
// emsort.SortRecords (cache-aware) and emsort.FunnelSortRecords /
// emsort.ObliviousSortRecords (cache-oblivious) satisfy it.
type SortFunc func(ext extmem.Extent, stride int, key emsort.Key)

// Canonicalize converts a raw edge list into canonical form using
// O(sort(E)) I/Os, as the paper assumes any input representation can be.
// Duplicate edges are removed. The sorter selects the sorting algorithm
// (pass emsort.SortRecords for cache-aware, emsort.FunnelSortRecords for
// cache-oblivious canonicalization).
func Canonicalize(sp *extmem.Space, raw extmem.Extent, sorter SortFunc) Canonical {
	m := raw.Len()
	if m == 0 {
		return Canonical{Edges: sp.Alloc(0), Degrees: sp.Alloc(0)}
	}

	// 1. Sort raw edges and deduplicate into `edges`.
	work := sp.Alloc(m)
	raw.CopyTo(work)
	sorter(work, 1, emsort.Identity)
	dedup := sp.Alloc(m)
	var e int64
	var prev extmem.Word
	for i := int64(0); i < m; i++ {
		w := work.Read(i)
		if i == 0 || w != prev {
			dedup.Write(e, w)
			e++
		}
		prev = w
	}
	edges := dedup.Prefix(e)

	// 2. Degree of each original id: double the endpoints and sort.
	ends := sp.Alloc(2 * e)
	for i := int64(0); i < e; i++ {
		w := edges.Read(i)
		ends.Write(2*i, extmem.Word(U(w)))
		ends.Write(2*i+1, extmem.Word(V(w)))
	}
	sorter(ends, 1, emsort.Identity)

	// 3. Run-length encode into (deg<<32 | id) records; sorting them gives
	// the degree order, and positions become ranks.
	byDeg := sp.Alloc(2 * e) // at most 2e distinct endpoints
	var nv int64
	for i := int64(0); i < 2*e; {
		id := ends.Read(i)
		j := i
		for j < 2*e && ends.Read(j) == id {
			j++
		}
		byDeg.Write(nv, extmem.Word(j-i)<<32|id)
		nv++
		i = j
	}
	verts := byDeg.Prefix(nv)
	sorter(verts, 1, emsort.Identity)

	// 4. Rank table sorted by id: records (id<<32 | rank).
	rankByID := sp.Alloc(nv)
	degrees := sp.Alloc(nv)
	rankToID := make([]uint32, nv)
	for r := int64(0); r < nv; r++ {
		w := verts.Read(r)
		id := uint32(w)
		deg := extmem.Word(w >> 32)
		rankByID.Write(r, extmem.Word(id)<<32|extmem.Word(r))
		degrees.Write(r, deg)
		rankToID[r] = id
	}
	sorter(rankByID, 1, emsort.Identity)

	// 5. Relabel: first the smaller endpoint (edges are sorted by it), by
	// a merge scan against rankByID; then re-sort by the second endpoint
	// and relabel it the same way.
	relabel := func(src extmem.Extent) extmem.Extent {
		// src holds (key<<32 | other) sorted by key; replace key by its
		// rank, producing (other<<32 | rank) for the next pass.
		out := sp.Alloc(src.Len())
		var ri int64
		for i := int64(0); i < src.Len(); i++ {
			w := src.Read(i)
			key := uint32(w >> 32)
			for uint32(rankByID.Read(ri)>>32) != key {
				ri++
			}
			rank := uint32(rankByID.Read(ri))
			out.Write(i, extmem.Word(uint32(w))<<32|extmem.Word(rank))
		}
		return out
	}
	pass1 := relabel(edges) // (v_orig << 32 | rank_u), sorted by... not sorted
	sorter(pass1, 1, emsort.Identity)
	pass2 := relabel(pass1) // (rank_u << 32 | rank_v)... keyed on rank order

	// 6. Normalize each edge to (min-rank, max-rank) and sort.
	canon := sp.Alloc(e)
	for i := int64(0); i < e; i++ {
		w := pass2.Read(i)
		canon.Write(i, Pack(uint32(w>>32), uint32(w)))
	}
	sorter(canon, 1, emsort.Identity)

	// Compact the result to the front of a fresh allocation region so the
	// caller can release everything above it... The scratch extents above
	// stay allocated; callers measuring space should Mark before calling.
	degOut := sp.Alloc(nv)
	degrees.CopyTo(degOut)
	edgeOut := sp.Alloc(e)
	canon.CopyTo(edgeOut)

	return Canonical{
		Edges:       edgeOut,
		NumVertices: int(nv),
		Degrees:     degOut,
		RankToID:    rankToID,
	}
}

// CanonicalizeList is a convenience wrapper: write a native EdgeList into
// the space and canonicalize it with the cache-aware sorter.
func CanonicalizeList(sp *extmem.Space, el EdgeList) Canonical {
	raw := el.Write(sp)
	return Canonicalize(sp, raw, emsort.SortRecords)
}

// ColorBuckets is the color-pair bucket layer of Sections 2 and 6. It
// distributes edges, which must be in canonical order, into the c² buckets
// of colorOf with one stable emsort.Distribute pass into a fresh extent of
// sp, and returns that extent with the c²+1 bucket offsets. Bucket a·c+b
// holds the edges (u,v) with colorOf(u) = a and colorOf(v) = b, in
// canonical order.
func ColorBuckets(sp *extmem.Space, edges extmem.Extent, colorOf func(uint32) uint32, c int) (extmem.Extent, []int64) {
	buckets := sp.Alloc(edges.Len())
	cc := uint64(c)
	off := emsort.Distribute(buckets, edges, c*c, func(e extmem.Word) uint64 {
		return uint64(colorOf(U(e)))*cc + uint64(colorOf(V(e)))
	})
	return buckets, off
}
