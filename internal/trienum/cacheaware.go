package trienum

import (
	"math"

	"repro/internal/ctxutil"
	"repro/internal/emio"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
)

// CacheAwareParallel enumerates all triangles of g with the randomized
// cache-aware algorithm of Section 2, using O(E^1.5/(sqrt(M)·B)) I/Os in
// expectation:
//
//  1. Triangles with a high-degree vertex (deg > sqrt(E·M)) are found by
//     the Lemma 1 subroutine, one vertex at a time, removing each vertex's
//     edges afterwards. There are fewer than sqrt(E/M) such vertices.
//  2. A 4-wise independent coloring ξ: V → [c], c = ceil(sqrt(E/M)),
//     partitions the remaining edges into color-pair buckets E_{τ1,τ2}.
//  3. Each of the c³ color triples (τ1,τ2,τ3) is solved by the Lemma 2
//     kernel with pivot set E_{τ2,τ3} and edge set
//     E_{τ1,τ2} ∪ E_{τ1,τ3} ∪ E_{τ2,τ3}, keeping only triangles whose
//     cone vertex has color τ1.
//
// Triangles are emitted in rank space, exactly once each. The Lemma 1
// passes and the color-triple kernels run on exec.Workers shards of the
// worker-pool engine (parallel.go); Workers=1 is the sequential run. The
// triangle stream and the summed I/O stats are identical for every worker
// count, and deterministic in seed. The second return value is the
// per-worker I/O breakdown of the parallel phases (the coordinator's own
// I/Os accrue to sp as usual). A non-nil error is exec.Ctx's cancellation
// error; the triangles emitted before it are a prefix of the full stream.
func CacheAwareParallel(sp *extmem.Space, g graph.Canonical, seed uint64, exec Exec, emit graph.Emit) (Info, []extmem.Stats, error) {
	var info Info
	emit = countingEmit(&info, emit)
	E := g.Edges.Len()
	ctx := exec.Ctx
	if err := ctxutil.Err(ctx); err != nil || E == 0 {
		return info, nil, err
	}
	cfg := sp.Config()
	workers := exec.workers()
	mark := sp.Mark()
	defer sp.Release(mark)

	work := sp.Alloc(E)
	g.Edges.CopyTo(work)

	curLen := E
	var workerStats []extmem.Stats
	if !exec.DisableHighDegree {
		var err error
		curLen, workerStats, err = highDegreeParallel(ctx, sp, work, g, workers, emit, &info)
		if err != nil {
			return info, workerStats, err
		}
	}

	c := ceilSqrt(float64(E) / float64(cfg.M))
	info.Colors = c
	col := hashing.NewColoring(hashing.NewRand(seed), c)
	ws, err := solveColoredParallel(ctx, sp, work.Prefix(curLen), col.Color, c, workers, &info, emit)
	return info, extmem.AddStatsVec(workerStats, ws), err
}

// solveTriple solves the pivot rows [pivLo, pivHi) of one color triple
// (τ1,τ2,τ3): merge the triple's (distinct) buckets into scratch,
// preserving sort order, and run the kernel with pivots E_{τ2,τ3}[pivLo,
// pivHi) and an explicit kernel chunk size (0 = automatic), keeping
// triangles whose cone vertex has color τ1. The whole triple is the range
// [0, |E_{τ2,τ3}|). The kernel's pivot loop processes chunks of memEdges
// rows independently — each chunk is one full scan of the triple's edge
// union — so running the ranges [k·memEdges, (k+1)·memEdges) as separate
// invocations and concatenating their emissions reproduces the whole
// triple's stream exactly. That is the native mode's work-stealing grain:
// a skewed triple splits into per-chunk tasks the engine's dynamic
// dispatch balances across workers (parallel.go), at the price of
// re-merging the bucket union per chunk.
func solveTriple(sp *extmem.Space, edges extmem.Extent, off []int64, c, t1, t2, t3 int, pivLo, pivHi int64, memEdges int, colorOf func(uint32) uint32, scratch extmem.Extent, emit graph.Emit) {
	b01 := bucketAt(edges, off, c, t1, t2)
	b02 := bucketAt(edges, off, c, t1, t3)
	b12 := bucketAt(edges, off, c, t2, t3)
	parts := distinctExtents(b01, b02, b12)
	un := mergeSortedInto(scratch, parts)
	tau1 := uint32(t1)
	// A nil ctx never cancels: the engine cancels between tasks.
	_ = kernel(nil, sp, un, b12.Slice(pivLo, pivHi), memEdges, func(v, _, _ uint32) bool {
		return colorOf(v) == tau1
	}, emit)
}

// highDegreeCut returns the lowest rank r0 whose degree exceeds the
// sqrt(E·M) threshold of step 1; ranks [r0, NumVertices) form the
// high-degree set V_h. Degrees are nondecreasing in rank, so the set is a
// suffix of the rank range, found by walking back from the top.
func highDegreeCut(g graph.Canonical, e, m float64) int {
	th := math.Sqrt(e * m)
	r0 := g.NumVertices
	for r0 > 0 && float64(g.Degrees.Read(int64(r0-1))) > th {
		r0--
	}
	return r0
}

// colorPairKey is the (colorOf(u), colorOf(v)) bucket key of an edge.
// The sorters tie-break equal keys by the full word, so each bucket comes
// out internally sorted in canonical edge order.
func colorPairKey(colorOf func(uint32) uint32, c int) emsort.Key {
	cc := uint64(c)
	return func(e extmem.Word) uint64 {
		return uint64(colorOf(graph.U(e)))*cc + uint64(colorOf(graph.V(e)))
	}
}

// bucketOffsets scans the color-sorted edges and returns the c²+1 bucket
// boundary offsets, accumulating the partition potential X_ξ (pairs of
// edges sharing a bucket, Lemma 3's random variable) into info.
func bucketOffsets(edges extmem.Extent, colorOf func(uint32) uint32, c int, info *Info) []int64 {
	pairKey := colorPairKey(colorOf, c)
	off := make([]int64, c*c+1)
	counts := make([]int64, c*c)
	emio.ForEach(edges, func(_ int64, e extmem.Word) {
		counts[pairKey(e)]++
	})
	var acc int64
	for i, n := range counts {
		off[i] = acc
		acc += n
		info.X += uint64(n) * uint64(n-1) / 2
	}
	off[c*c] = acc
	return off
}

// bucketAt returns the (t1,t2) bucket of the color-sorted edge extent.
func bucketAt(edges extmem.Extent, off []int64, c, t1, t2 int) extmem.Extent {
	i := t1*c + t2
	return edges.Slice(off[i], off[i+1])
}

// forEachTriple visits the color triples (τ1,τ2,τ3) in the canonical order
// both execution modes share, skipping triples whose buckets cannot
// contain a triangle. The order is part of the emission contract: the
// engine replays completed triples in exactly this sequence.
func forEachTriple(off []int64, c int, fn func(t1, t2, t3 int)) {
	empty := func(t1, t2 int) bool {
		i := t1*c + t2
		return off[i+1] == off[i]
	}
	for t1 := 0; t1 < c; t1++ {
		for t2 := 0; t2 < c; t2++ {
			if empty(t1, t2) {
				continue // no {v1,v2} edges for this (τ1,τ2)
			}
			for t3 := 0; t3 < c; t3++ {
				if empty(t1, t3) || empty(t2, t3) {
					continue
				}
				fn(t1, t2, t3)
			}
		}
	}
}

// distinctExtents drops duplicate extents (same base), which arise when
// colors in a triple coincide and two bucket names alias one bucket.
func distinctExtents(exts ...extmem.Extent) []extmem.Extent {
	var out []extmem.Extent
	for _, e := range exts {
		dup := false
		for _, o := range out {
			if o.Base() == e.Base() {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e)
		}
	}
	return out
}

// mergeSortedInto k-way merges the sorted extents in parts into the prefix
// of dst and returns that prefix.
func mergeSortedInto(dst extmem.Extent, parts []extmem.Extent) extmem.Extent {
	if len(parts) == 1 {
		parts[0].CopyTo(dst.Prefix(parts[0].Len()))
		return dst.Prefix(parts[0].Len())
	}
	readers := make([]*emio.Reader, len(parts))
	heads := make([]extmem.Word, len(parts))
	alive := make([]bool, len(parts))
	for i, p := range parts {
		readers[i] = emio.NewReader(p)
		heads[i], alive[i] = readers[i].Next()
	}
	w := emio.NewWriter(dst)
	for {
		best := -1
		for i := range parts {
			if alive[i] && (best < 0 || heads[i] < heads[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		w.Append(heads[best])
		heads[best], alive[best] = readers[best].Next()
	}
	return w.Written()
}
