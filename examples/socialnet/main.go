// socialnet analyzes a scale-free social network under memory pressure:
// triangle counts, clustering coefficients, and the most embedded members,
// computed entirely in the external-memory model via internal/analytics,
// then compares the I/O cost of the paper's algorithms against the
// baselines on the same machine. Heavy-tailed degree distributions are
// exactly where the paper's high-degree-vertex handling (step 1 of the
// algorithms) earns its keep.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/analytics"
	"repro/internal/baseline"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/trienum"
)

func main() {
	const (
		users       = 10000
		friendships = 40000
		memoryWords = 1 << 12 // memory holds ~10% of the edges
		blockWords  = 1 << 6
	)
	el := graph.PowerLaw(users, friendships, 2.1, 2024)
	sp := extmem.NewSpace(extmem.Config{M: memoryWords, B: blockWords})
	g := graph.CanonicalizeList(sp, el)
	sp.DropCache()
	sp.ResetStats()

	profile, err := analytics.Compute(sp, g, 1, trienum.Exec{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d users, %d friendships (E/M = %.0fx memory)\n",
		g.NumVertices, g.Edges.Len(), float64(g.Edges.Len())/float64(memoryWords))
	fmt.Printf("triangles:                   %d\n", profile.Total)
	fmt.Printf("global clustering (3t/wedges): %.4f\n", profile.GlobalClustering())
	fmt.Printf("average local clustering:      %.4f\n", profile.AverageLocalClustering(g))
	fmt.Printf("analytics pipeline I/Os:       %d\n\n", sp.Stats().IOs())

	fmt.Println("most embedded users (triangles through them, local clustering):")
	for _, vc := range profile.TopK(5) {
		fmt.Printf("  user %-6d %6d triangles  c=%.3f\n",
			g.RankToID[vc.Rank], vc.Triangles, profile.LocalClustering(g, vc.Rank))
	}

	// The paper's algorithms run on the worker-pool engine; their I/Os are
	// the coordinator's plus every worker's. The baselines are sequential.
	fmt.Println("\nI/O comparison, same machine, enumeration only:")
	sequential := func(run func(context.Context, *extmem.Space, graph.Canonical, graph.Emit) (trienum.Info, error)) func(*extmem.Space, graph.Canonical, graph.Emit) (trienum.Info, []extmem.Stats, error) {
		return func(sp *extmem.Space, g graph.Canonical, e graph.Emit) (trienum.Info, []extmem.Stats, error) {
			info, err := run(nil, sp, g, e)
			return info, nil, err
		}
	}
	runs := []struct {
		name string
		run  func(*extmem.Space, graph.Canonical, graph.Emit) (trienum.Info, []extmem.Stats, error)
	}{
		{"cacheaware (PS'14 §2)", func(sp *extmem.Space, g graph.Canonical, e graph.Emit) (trienum.Info, []extmem.Stats, error) {
			return trienum.CacheAwareParallel(sp, g, 1, trienum.Exec{}, e)
		}},
		{"oblivious  (PS'14 §3)", func(sp *extmem.Space, g graph.Canonical, e graph.Emit) (trienum.Info, []extmem.Stats, error) {
			return trienum.ObliviousParallel(sp, g, 1, trienum.Exec{}, e)
		}},
		{"hutaochung (SIGMOD'13)", sequential(trienum.HuTaoChung)},
		{"edgeiterator", sequential(baseline.EdgeIterator)},
	}
	for _, r := range runs {
		sp.DropCache()
		sp.ResetStats()
		var n uint64
		info, workerStats, err := r.run(sp, g, graph.Counter(&n))
		if err != nil {
			log.Fatal(err)
		}
		sp.Flush()
		ios := sp.Stats().IOs()
		for _, w := range workerStats {
			ios += w.IOs()
		}
		fmt.Printf("  %-24s %9d I/Os  (Lemma-1 vertices: %d)\n", r.name, ios, info.HighDegVertices)
	}
	if err := checkConsistency(profile.Total); err != nil {
		log.Fatal(err)
	}
}

// checkConsistency re-counts through the public query API with a second
// algorithm; a mismatch would indicate a bug, so the example doubles as
// an end-to-end smoke test of the internal pipeline against the public
// surface.
func checkConsistency(want uint64) error {
	pg, err := repro.Build(repro.FromSpec("powerlaw:n=10000,m=40000,beta=2.1"), repro.Options{
		MemoryWords: 1 << 12,
		BlockWords:  1 << 6,
		Seed:        2024,
	})
	if err != nil {
		return err
	}
	defer pg.Close()
	res, err := pg.TrianglesFunc(context.Background(), repro.Query{Algorithm: repro.HuTaoChung}, nil)
	if err != nil {
		return err
	}
	if res.Triangles != want {
		return fmt.Errorf("count mismatch: %d vs %d", res.Triangles, want)
	}
	return nil
}
