package trienum

import (
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
)

// BenchmarkKernelTriple times the Lemma 2 kernel on one color triple of the
// cache-aware algorithm, on the simulated and the native machine. Setup
// mirrors CacheAwareParallel on powerlaw(n=8000, m=40000, β=2.1) at
// M=2^12, B=2^6 — the high-degree cut, the c=4 coloring, the color-pair
// distribution, and the merge of the triple (0,1,2)'s cone buckets — and
// stays outside the timer; each iteration runs the kernel over the merged
// cone edges from a cold cache. Reports IOs (per kernel run; zero on the
// native machine) and triangles.
func BenchmarkKernelTriple(b *testing.B) {
	for _, mode := range []struct {
		name   string
		native bool
	}{{"simulated", false}, {"native", true}} {
		b.Run(mode.name, func(b *testing.B) {
			sp := extmem.NewSpace(extmem.Config{M: 1 << 12, B: 1 << 6, Native: mode.native})
			g := graph.CanonicalizeList(sp, graph.PowerLaw(8000, 40000, 2.1, 1))
			E, M := g.Edges.Len(), sp.Config().M
			work := sp.Alloc(E)
			g.Edges.CopyTo(work)
			work = work.Prefix(compactBelow(sp, work, uint32(highDegreeCut(g, float64(E), float64(M)))))
			c := ceilSqrt(float64(E) / float64(M))
			col := hashing.NewColoring(hashing.NewRand(1), c)
			buckets, off := graph.ColorBuckets(sp, work, col.Color, c)
			const t1, t2, t3 = 0, 1, 2
			b01, b02, b12 := bucketAt(buckets, off, c, t1, t2), bucketAt(buckets, off, c, t1, t3), bucketAt(buckets, off, c, t2, t3)
			cones := mergeSortedInto(sp.Alloc(b01.Len()+b02.Len()), b01, b02)

			var triangles uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.DropCache()
				sp.ResetStats()
				triangles = 0
				if err := kernel(nil, sp, cones, b12, 0, graph.Counter(&triangles)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sp.Stats().IOs()), "IOs")
			b.ReportMetric(float64(triangles), "triangles")
		})
	}
}
