// Quickstart: build a reusable graph handle, stream its triangles with
// the range-over-func iterator, then run an out-of-core count — two
// queries, one canonicalization.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// A bowtie: two triangles sharing vertex 2.
	edges := [][2]uint32{
		{0, 1}, {1, 2}, {0, 2},
		{2, 3}, {3, 4}, {2, 4},
	}

	g, err := repro.Build(repro.FromEdges(edges), repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()

	var res repro.Result
	for t, err := range g.Triangles(context.Background(), repro.Query{Result: &res}) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("triangle {%d, %d, %d}\n", t.A, t.B, t.C)
	}
	fmt.Printf("\n%d triangles over %d edges, %d block I/Os (M=%d words, B=%d words)\n",
		res.Triangles, res.Edges, res.Stats.IOs(), 1<<16, 1<<7)

	// The same library scales to graphs far larger than memory. Simulate
	// a machine whose memory holds only 1/16 of the edges:
	big, err := repro.Build(repro.FromSpec("gnm:n=20000,m=131072"), repro.Options{
		MemoryWords: 1 << 13,
		BlockWords:  1 << 6,
		Seed:        42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer big.Close()
	bigRes, err := big.TrianglesFunc(context.Background(), repro.Query{Algorithm: repro.CacheAware, Seed: 42}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nout-of-core run: E=%d (16x memory), %d triangles, %d I/Os, %d color classes\n",
		bigRes.Edges, bigRes.Triangles, bigRes.Stats.IOs(), bigRes.Colors*bigRes.Colors)
}
