// streamquery demonstrates the streaming, cancellable query API: one
// graph handle serves many queries; results arrive as range-over-func
// iterators that can be broken out of mid-stream (which cancels the
// underlying worker pool), whole queries can be cancelled through a
// context deadline — the pattern a production service uses to bound
// per-request latency against a shared graph — and a long stream can be
// read in pages, each resumed from the position the previous one
// reached. It exits non-zero if the pages do not concatenate to the
// unpaged stream.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"time"

	"repro"
)

func main() {
	// A triangle-dense graph: memory holds ~6% of the edges, and the
	// planted clique guarantees a long triangle stream.
	g, err := repro.Build(repro.FromSpec("planted:n=4000,m=30000,k=40"), repro.Options{
		MemoryWords: 1 << 11,
		BlockWords:  1 << 5,
		Seed:        3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	fmt.Printf("graph: V=%d E=%d, canonicalized once (%d I/Os); every query below reuses it\n\n",
		g.NumVertices(), g.NumEdges(), g.CanonIOs())

	// Query 1 — stream and stop early: take the first 10 triangles, then
	// break. The break cancels the query; its workers drain before the
	// loop exits.
	fmt.Println("first 10 triangles of the stream:")
	n := 0
	for t, err := range g.Triangles(context.Background(), repro.Query{Seed: 1}) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  {%d, %d, %d}\n", t.A, t.B, t.C)
		if n++; n == 10 {
			break
		}
	}

	// Query 2 — the same handle, full run: the early stop above left no
	// residue; statistics depend only on the query.
	res, err := g.TrianglesFunc(context.Background(), repro.Query{Seed: 1}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull count on the same handle: %d triangles, %d I/Os\n", res.Triangles, res.Stats.IOs())

	// Query 3 — a deadline: cancel cooperatively if the enumeration
	// outruns its budget. An impossibly tight deadline demonstrates the
	// mechanism; the query returns context.DeadlineExceeded, reports the
	// prefix it emitted, and leaks nothing.
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	var partial uint64
	_, err = g.TrianglesFunc(ctx, repro.Query{Seed: 1}, func(_, _, _ uint32) { partial++ })
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Printf("deadline query: cancelled after %d triangles (prefix of the full stream)\n", partial)
	case err != nil:
		log.Fatal(err)
	default:
		fmt.Printf("deadline query: finished under budget (%d triangles)\n", partial)
	}

	// Query 4 — the handle serves other workloads too: 4-cliques of the
	// planted community, streamed the same way.
	cliques := 0
	for _, err := range g.Cliques(context.Background(), 4, repro.Query{Seed: 1}) {
		if err != nil {
			log.Fatal(err)
		}
		if cliques++; cliques == 1000 {
			break
		}
	}
	fmt.Printf("4-clique stream: stopped after %d cliques\n", cliques)

	// Query 5 — pagination: read the triangle stream in pages of 5,000,
	// each starting from the position the previous page reached
	// (Result.Next). A resumed page starts at the decomposition unit the
	// previous one stopped in, so it costs its set-up plus the units it
	// reads, not a replay from the first triangle. The pages concatenate
	// to the unpaged stream.
	var unpaged, paged []repro.Triangle
	for t, err := range g.Triangles(context.Background(), repro.Query{Seed: 1}) {
		if err != nil {
			log.Fatal(err)
		}
		unpaged = append(unpaged, t)
	}
	const pageSize = 5000
	var page repro.Result
	for pages := 1; ; pages++ {
		n := 0
		for t, err := range g.Triangles(context.Background(), repro.Query{Seed: 1, From: page.Next, Limit: pageSize, Result: &page}) {
			if err != nil {
				log.Fatal(err)
			}
			paged = append(paged, t)
			n++
		}
		if n < pageSize {
			if !slices.Equal(paged, unpaged) {
				log.Fatalf("%d pages hold %d triangles that differ from the unpaged stream of %d", pages, len(paged), len(unpaged))
			}
			fmt.Printf("paged stream: %d pages of up to %d concatenate to the unpaged %d triangles\n", pages, pageSize, len(unpaged))
			return
		}
	}
}
