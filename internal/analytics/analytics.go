// Package analytics computes triangle-based graph statistics — per-vertex
// triangle counts, local and global clustering coefficients, top-k most
// clustered vertices — entirely in the external-memory model, on top of
// the enumeration algorithms. It is the kind of downstream consumer the
// paper's introduction motivates (community detection, social-network
// analysis).
package analytics

import (
	"container/heap"

	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/trienum"
)

// Profile holds the triangle statistics of a graph. Extents index by
// vertex rank (the canonical order).
type Profile struct {
	// Total is the number of triangles in the graph.
	Total uint64
	// Counts.Read(r) is the number of triangles containing rank r.
	Counts extmem.Extent
	// Wedges is the number of paths of length two, Σ_v C(deg(v), 2).
	Wedges uint64
}

// Compute lists the triangles with the cache-aware engine
// (trienum.ListTriangles, which absorbs the workers' I/Os into sp) and
// aggregates per-vertex triangle counts with sorting and scanning:
// O(sort(t) + sort(E)) I/Os on top of the enumeration itself. A non-nil
// error is exec.Ctx's cancellation error.
func Compute(sp *extmem.Space, g graph.Canonical, seed uint64, exec trienum.Exec) (Profile, error) {
	v := int64(g.NumVertices)
	counts := sp.Alloc(v)
	p := Profile{Counts: counts}

	list, _, err := trienum.ListTriangles(sp, g, seed, exec)
	if err != nil {
		return p, err
	}
	t := trienum.ListLen(list)
	p.Total = uint64(t)

	mark := sp.Mark()
	// Flatten to one vertex id per word, sort, and run-length encode.
	flat := sp.Alloc(3 * t)
	for i := int64(0); i < t; i++ {
		a, b, c := trienum.ReadTriple(list, i)
		flat.Write(3*i, extmem.Word(a))
		flat.Write(3*i+1, extmem.Word(b))
		flat.Write(3*i+2, extmem.Word(c))
	}
	emsort.SortRecords(flat, 1, emsort.Identity)
	var pos int64
	for r := int64(0); r < v; r++ {
		var n extmem.Word
		for pos < flat.Len() && flat.Read(pos) == extmem.Word(r) {
			n++
			pos++
		}
		counts.Write(r, n)
	}
	sp.Release(mark)

	// Wedge count from the degree extent.
	for r := int64(0); r < v; r++ {
		d := g.Degrees.Read(r)
		p.Wedges += d * (d - 1) / 2
	}
	return p, nil
}

// GlobalClustering returns the global clustering coefficient (transitivity)
// 3t / wedges, or 0 for wedgeless graphs.
func (p Profile) GlobalClustering() float64 {
	if p.Wedges == 0 {
		return 0
	}
	return 3 * float64(p.Total) / float64(p.Wedges)
}

// LocalClustering returns the local clustering coefficient of rank r:
// triangles(r) / C(deg(r), 2), or 0 for degree < 2.
func (p Profile) LocalClustering(g graph.Canonical, r uint32) float64 {
	d := g.Degrees.Read(int64(r))
	if d < 2 {
		return 0
	}
	return float64(p.Counts.Read(int64(r))) / (float64(d) * float64(d-1) / 2)
}

// AverageLocalClustering returns the mean local clustering coefficient
// over all vertices (Watts–Strogatz style).
func (p Profile) AverageLocalClustering(g graph.Canonical) float64 {
	v := int64(g.NumVertices)
	if v == 0 {
		return 0
	}
	var sum float64
	for r := int64(0); r < v; r++ {
		sum += p.LocalClustering(g, uint32(r))
	}
	return sum / float64(v)
}

// VertexCount pairs a vertex (by rank) with its triangle count.
type VertexCount struct {
	Rank      uint32
	Triangles uint64
}

// TopK returns the k vertices participating in the most triangles, in
// decreasing order, using a single scan and an O(k)-word heap.
func (p Profile) TopK(k int) []VertexCount {
	if k <= 0 {
		return nil
	}
	release := p.Counts.Space().Lease(2 * k)
	defer release()
	h := &vcHeap{}
	v := p.Counts.Len()
	for r := int64(0); r < v; r++ {
		n := p.Counts.Read(r)
		if n == 0 {
			continue
		}
		vc := VertexCount{Rank: uint32(r), Triangles: n}
		if h.Len() < k {
			heap.Push(h, vc)
		} else if less((*h)[0], vc) {
			(*h)[0] = vc
			heap.Fix(h, 0)
		}
	}
	out := make([]VertexCount, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(VertexCount)
	}
	return out
}

// less orders by (triangles, then rank) ascending so TopK output is
// deterministic.
func less(a, b VertexCount) bool {
	if a.Triangles != b.Triangles {
		return a.Triangles < b.Triangles
	}
	return a.Rank > b.Rank
}

type vcHeap []VertexCount

func (h vcHeap) Len() int            { return len(h) }
func (h vcHeap) Less(i, j int) bool  { return less(h[i], h[j]) }
func (h vcHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *vcHeap) Push(x interface{}) { *h = append(*h, x.(VertexCount)) }
func (h *vcHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
