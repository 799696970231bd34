package trienum

import (
	"math"

	"repro/internal/ctxutil"
	"repro/internal/emio"
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
//     partitions the remaining edges into color-pair buckets E_{τ1,τ2}
//     in one stable distribution pass (graph.ColorBuckets).
//  3. Each of the c³ color triples (τ1,τ2,τ3) is solved by the Lemma 2
//     kernel with pivot set E_{τ2,τ3} and cone edges
//     E_{τ1,τ2} ∪ E_{τ1,τ3}, whose cone vertices all have color τ1.
//
// Triangles are emitted in rank space, exactly once each. The Lemma 1
// passes and the color-triple kernels run on exec.Workers shards of the
// worker-pool engine (parallel.go); Workers=1 is the sequential run. The
// triangle stream and the summed I/O stats are identical for every worker
// count, and deterministic in seed. The second return value is the
// per-worker I/O breakdown of the parallel phases (the coordinator's own
// I/Os accrue to sp as usual). A non-nil error is exec.Ctx's cancellation
// error, with the triangles emitted before it a prefix of the full
// stream, or ErrFrom. The decomposition units exec.From and exec.OnUnit
// count are the Lemma 1 passes, in step 1's order, then the color triples
// (parallel.go).
func CacheAwareParallel(sp *extmem.Space, g graph.Canonical, seed uint64, exec Exec, emit graph.Emit) (Info, []extmem.Stats, error) {
	var info Info
	emit = countingEmit(&info, emit)
	E := g.Edges.Len()
	ctx := exec.Ctx
	if err := ctxutil.Err(ctx); err != nil || E == 0 {
		return info, nil, err
	}
	cfg := sp.Config()
	mark := sp.Mark()
	defer sp.Release(mark)

	work := sp.Alloc(E)
	g.Edges.CopyTo(work)

	curLen := E
	var workerStats []extmem.Stats
	if !exec.DisableHighDegree {
		var err error
		curLen, workerStats, err = highDegreeParallel(exec, sp, work, g, emit, &info)
		if err != nil {
			return info, workerStats, err
		}
	}

	c := ceilSqrt(float64(E) / float64(cfg.M))
	info.Colors = c
	col := hashing.NewColoring(hashing.NewRand(seed), c)
	ws, err := solveColoredParallel(exec, sp, work.Prefix(curLen), col.Color, c, info.HighDegVertices, &info, emit)
	return info, extmem.AddStatsVec(workerStats, ws), err
}

// SolveTriple solves one color triple (τ1,τ2,τ3) of the color-pair
// buckets laid out in edges, bucket (a,b) at [off[a·c+b], off[a·c+b+1]):
// merge the (distinct) cone buckets E_{τ1,τ2} and E_{τ1,τ3} into scratch
// it allocates on sp, preserving sort order, and run the kernel with all
// of E_{τ2,τ3} as pivots. It is the one triple solver: the engine's tasks
// (solveColoredParallel), one per triple in either mode, and the cluster
// shards, which lay out only the buckets of their owned color tuples,
// both call it.
//
// The two cone buckets are all the triple needs. A triangle v<u<w of
// colors (τ1,τ2,τ3) has cone edges (v,u) ∈ E_{τ1,τ2} and (v,w) ∈ E_{τ1,τ3}
// and pivot (u,w) ∈ E_{τ2,τ3}. Every cone vertex of the two buckets has
// color τ1, and a τ1-cone has no other edge in E_{τ2,τ3}: when τ2 = τ1
// that bucket is E_{τ1,τ3}. So each triangle is emitted in exactly its
// own triple, and in the order the paper's edge set for the triple,
// E_{τ1,τ2} ∪ E_{τ1,τ3} ∪ E_{τ2,τ3} with only τ1-cones kept, gives it.
func SolveTriple(sp *extmem.Space, edges extmem.Extent, off []int64, c, t1, t2, t3 int, emit graph.Emit) {
	cone12, cone13 := bucketAt(edges, off, c, t1, t2), bucketAt(edges, off, c, t1, t3)
	pivots := bucketAt(edges, off, c, t2, t3)
	if pivots.Len() == 0 || cone12.Len() == 0 || cone13.Len() == 0 {
		return // an edge of every triangle of the triple is missing
	}
	parts := []extmem.Extent{cone12}
	if t3 != t2 { // else E_{τ1,τ3} is E_{τ1,τ2}
		parts = append(parts, cone13)
	}
	mark := sp.Mark()
	defer sp.Release(mark)
	// Scratch for the cone-bucket merge; the two named buckets bound its
	// size even when τ2 = τ3 and they alias.
	cones := mergeSortedInto(sp.Alloc(cone12.Len()+cone13.Len()), parts)
	// A nil ctx never cancels: the engine cancels between tasks.
	_ = kernel(nil, sp, cones, pivots, 0, emit)
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

// bucketAt returns the (t1,t2) bucket of the color-distributed edges.
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
