package trienum

import (
	"cmp"
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
		return info, nil, cmp.Or(err, exec.CheckFrom(0))
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
// run the kernel with all of E_{τ2,τ3} as pivots and the cone buckets
// E_{τ1,τ2} and E_{τ1,τ3} as its sorted edge set. When τ3 = τ2 the two
// are one bucket, which the kernel reads in place (one color is the
// triple (0,0,0), so it too runs with no copy); otherwise they are merged
// into scratch allocated on sp, preserving sort order. It is the one
// triple solver: the engine's tasks (solveColoredParallel), one per
// listed triple in either mode, and the cluster shards, which lay out
// only the buckets of their owned color tuples, both call it. A triple
// that CliqueRule(3) does not admit has no triangle, and it returns.
//
// The two cone buckets are all the triple needs. A triangle v<u<w of
// colors (τ1,τ2,τ3) has cone edges (v,u) ∈ E_{τ1,τ2} and (v,w) ∈ E_{τ1,τ3}
// and pivot (u,w) ∈ E_{τ2,τ3}. Every cone vertex of the two buckets has
// color τ1, and a τ1-cone has no other edge in E_{τ2,τ3}: when τ2 = τ1
// that bucket is E_{τ1,τ3}. So each triangle is emitted in exactly its
// own triple, and in the order the paper's edge set for the triple,
// E_{τ1,τ2} ∪ E_{τ1,τ3} ∪ E_{τ2,τ3} with only τ1-cones kept, gives it.
func SolveTriple(sp *extmem.Space, edges extmem.Extent, off []int64, c, t1, t2, t3 int, emit graph.Emit) {
	if !CliqueRule(3).Admits(off, c, []int{t1, t2, t3}) {
		return
	}
	cones, cone13 := bucketAt(edges, off, c, t1, t2), bucketAt(edges, off, c, t1, t3)
	pivots := bucketAt(edges, off, c, t2, t3)
	if t3 != t2 {
		mark := sp.Mark()
		defer sp.Release(mark)
		cones = mergeSortedInto(sp.Alloc(cones.Len()+cone13.Len()), cones, cone13)
	}
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

// mergeSortedInto merges the sorted extents a and b into the prefix of
// dst and returns that prefix.
func mergeSortedInto(dst, a, b extmem.Extent) extmem.Extent {
	ra, rb := emio.NewReader(a), emio.NewReader(b)
	x, okA := ra.Next()
	y, okB := rb.Next()
	w := emio.NewWriter(dst)
	for okA || okB {
		if okA && (!okB || x <= y) {
			w.Append(x)
			x, okA = ra.Next()
		} else {
			w.Append(y)
			y, okB = rb.Next()
		}
	}
	return w.Written()
}
