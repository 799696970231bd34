// kclique demonstrates the Section 6 extension through the public query
// API: enumerating k-cliques (k > 3) with the same color-coding
// decomposition, in O(E^(k/2)/(M^(k/2−1)·B)) expected I/Os, and
// arbitrary connected patterns à la Silvestri 2014. It hunts for the
// clique community planted inside a sparse random background graph.
//
// The graph is built once — one O(sort(E)) canonicalization — and every
// query (three clique sizes, four patterns) runs against the same
// repro.Graph handle. Each clique size runs on one worker and on four,
// and the program exits non-zero unless both give the same stream and
// the same I/O statistics: the color tuples run on a worker pool, and
// the worker count may change only the wall-clock time.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"repro"
)

func main() {
	// A sparse network with a hidden tightly-knit community of 12.
	g, err := repro.Build(repro.FromSpec("planted:n=5000,m=20000,k=12"), repro.Options{
		MemoryWords: 1 << 12,
		BlockWords:  1 << 6,
		Seed:        99,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	fmt.Printf("graph: V=%d E=%d, memory holds %.0f%% of the edges (canonicalized once: %d I/Os)\n\n",
		g.NumVertices(), g.NumEdges(), 100*float64(1<<12)/float64(g.NumEdges()), g.CanonIOs())

	ctx := context.Background()
	for _, k := range []int{3, 4, 5} {
		// Collect which vertices appear in k-cliques: members of the
		// planted community dominate for k >= 4.
		members := map[uint32]int{}
		var stream []uint32
		res, err := g.CliquesFunc(ctx, k, repro.Query{Seed: 7, Workers: 1}, func(vs []uint32) {
			stream = append(stream, vs...)
			for _, v := range vs {
				members[v]++
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		// The same query on four workers: same stream, same Stats.
		var stream4 []uint32
		res4, err := g.CliquesFunc(ctx, k, repro.Query{Seed: 7, Workers: 4}, func(vs []uint32) {
			stream4 = append(stream4, vs...)
		})
		if err != nil {
			log.Fatal(err)
		}
		if !slices.Equal(stream4, stream) || res4.Stats != res.Stats {
			log.Fatalf("k=%d: %d workers gave %d cliques and %+v, 1 worker %d and %+v",
				k, res4.Workers, res4.Matches, res4.Stats, res.Matches, res.Stats)
		}
		fmt.Printf("k=%d: %10d cliques, %7d I/Os, %d colors, %d subproblems (largest %d edges); workers 1 and %d agree\n",
			k, res.Matches, res.Stats.IOs(), res.Colors, res.Subproblems, res.MaxSubproblem, res4.Workers)
		if k == 5 {
			fmt.Printf("\nvertices in 5-cliques (the planted community surfaces):\n  ")
			n := 0
			for v := range members {
				fmt.Printf("%d ", v)
				n++
				if n >= 12 {
					break
				}
			}
			fmt.Println()
		}
	}

	// The same decomposition enumerates any constant-size connected
	// pattern in the Alon class, not just cliques.
	fmt.Println("\narbitrary patterns (Section 6, general form):")
	for _, p := range []*repro.Pattern{repro.PatternPath3, repro.PatternCycle4, repro.PatternDiamond, repro.PatternStar3} {
		res, err := g.MatchFunc(ctx, p, repro.Query{Seed: 7}, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s (|Aut|=%2d): %12d copies, %7d I/Os\n",
			p.Name(), p.Automorphisms(), res.Matches, res.Stats.IOs())
	}
}
