package repro

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// pagingGraph is a graph whose decompositions have many units on a small
// machine (M = 2^8, B = 2^4): a vertex of degree 540 > sqrt(E·M) is a
// Lemma 1 pass of CacheAware and Deterministic, the rest is split into
// c = 3 colors, its 1,060 edges are more than CacheOblivious's planner
// hands to one task, and a K5 among the hub's neighbours gives it
// 4-cliques. It has 34 triangles, 15 4-cliques and 90 diamonds.
func pagingGraph(t testing.TB) *Graph {
	t.Helper()
	base, err := Generate("gnm:n=300,m=500", 1)
	if err != nil {
		t.Fatal(err)
	}
	var es [][2]uint32
	for _, e := range base {
		es = append(es, [2]uint32{e[0] + 1000, e[1] + 1000})
	}
	const hub = 5000
	for v := uint32(0); v < 540; v++ {
		es = append(es, [2]uint32{hub, v})
	}
	for a := uint32(0); a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			es = append(es, [2]uint32{a, b})
		}
	}
	for v := uint32(0); v < 10; v++ {
		es = append(es, [2]uint32{5 + v*7, 100 + v*13})
	}
	g, err := Build(FromEdges(es), Options{MemoryWords: 1 << 8, BlockWords: 1 << 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// pagedQuery is one row of the paging table: a query kind, how to run
// it, and the page sizes and starting worker counts to page it with.
// units says whether the query resumes at its unit; the others resume by
// replay and always report unit 0.
type pagedQuery struct {
	name    string
	units   bool
	sizes   []uint64
	workers []int
	run     func(g *Graph, q Query, emit func([]uint32)) (Result, error)
}

func pagedTriangles(alg Algorithm, ordered bool) func(*Graph, Query, func([]uint32)) (Result, error) {
	return func(g *Graph, q Query, emit func([]uint32)) (Result, error) {
		q.Algorithm, q.Ordered = alg, ordered
		return g.TrianglesFunc(context.Background(), q, func(a, b, c uint32) { emit([]uint32{a, b, c}) })
	}
}

var pagedQueries = []pagedQuery{
	{"cacheaware", true, []uint64{1, 7}, []int{1, 4}, pagedTriangles(CacheAware, false)},
	{"oblivious", true, []uint64{1, 7}, []int{1, 4}, pagedTriangles(CacheOblivious, false)},
	{"deterministic", true, []uint64{1, 7}, []int{1, 4}, pagedTriangles(Deterministic, false)},
	{"hutaochung", false, []uint64{1, 7}, []int{1, 4}, pagedTriangles(HuTaoChung, false)},
	{"ordered", false, []uint64{1, 7}, []int{1, 4}, pagedTriangles(CacheAware, true)},
	{"cliques4", true, []uint64{1, 7}, []int{1, 4}, func(g *Graph, q Query, emit func([]uint32)) (Result, error) {
		return g.CliquesFunc(context.Background(), 4, q, emit)
	}},
	// A page of a match re-solves the color tuple it resumes in, and a
	// diamond search through the hub costs ~0.1 s per run, so the diamond
	// pages by 7 from Workers 1 only (its pages still alternate with
	// Workers 4); the clique row covers page size 1 and both starts on
	// the same color-tuple units.
	{"diamond", true, []uint64{7}, []int{1}, func(g *Graph, q Query, emit func([]uint32)) (Result, error) {
		return g.MatchFunc(context.Background(), PatternDiamond, q, emit)
	}},
}

// pageThrough reads the query in pages of size emissions, each resumed
// from the previous page's Next, and returns the concatenated stream and
// the Next of every page. Pages alternate between q.Workers and the other
// of 1 and 4, so a Next minted at one worker count resumes at the other.
// Every page must report the position it reached as Matches and Next.
func pageThrough(t *testing.T, g *Graph, pq pagedQuery, q Query, size uint64) (string, []Position) {
	t.Helper()
	var out []byte
	var nexts []Position
	for page := 0; ; page++ {
		if page > 1000 {
			t.Fatal("paging did not terminate")
		}
		p := q
		p.Limit = size
		if len(nexts) > 0 {
			p.From = nexts[len(nexts)-1]
		}
		if page%2 == 1 {
			p.Workers = 5 - q.Workers
		}
		var n uint64
		res, err := pq.run(g, p, func(vs []uint32) {
			out = fmt.Appendf(out, "%v", vs)
			n++
		})
		if err != nil {
			t.Fatalf("page %d from %+v: %v", page, p.From, err)
		}
		reached := p.From.Emitted + n
		if res.Matches != reached || res.Next.Emitted != reached {
			t.Fatalf("page %d from %+v: Matches %d, Next %+v; want the position reached, %d", page, p.From, res.Matches, res.Next, reached)
		}
		if res.Triangles != 0 && res.Triangles != reached {
			t.Fatalf("page %d: Triangles %d, want %d", page, res.Triangles, reached)
		}
		if !pq.units && (res.Next.Unit != 0 || res.Next.UnitStart != 0) {
			t.Fatalf("page %d: a query without units reports %+v", page, res.Next)
		}
		if n < size {
			return string(out), nexts
		}
		nexts = append(nexts, res.Next)
	}
}

// TestPagedFromNext pins the resume contract of Query.From: pages read
// with From set to the previous page's Next concatenate to the unpaged
// stream byte for byte, for every triangle algorithm with units, a
// baseline, 4-cliques, a diamond match and an ordered stream, at Workers
// 1 and 4 on both machines, with Nexts crossing worker counts, at page
// sizes 1 and 7 and with a page that ends exactly on a unit boundary.
// The position after every emission is the same at every Workers value
// and on both machines.
func TestPagedFromNext(t *testing.T) {
	g := pagingGraph(t)
	for _, pq := range pagedQueries {
		var ref string
		var refNexts []Position
		for _, mode := range []ExecMode{ModeSimulated, ModeNative} {
			for _, workers := range pq.workers {
				name := fmt.Sprintf("%s/mode%d/w%d", pq.name, mode, workers)
				q := Query{Seed: 3, Mode: mode, Workers: workers}
				var full []byte
				res, err := pq.run(g, q, func(vs []uint32) { full = fmt.Appendf(full, "%v", vs) })
				if err != nil {
					t.Fatalf("%s: unpaged: %v", name, err)
				}
				if res.Matches < 8 {
					t.Fatalf("%s: degenerate input: %d matches", name, res.Matches)
				}
				if ref == "" {
					ref = string(full)
				} else if string(full) != ref {
					t.Fatalf("%s: the unpaged stream varies with Workers or Mode", name)
				}
				for _, size := range pq.sizes {
					got, nexts := pageThrough(t, g, pq, q, size)
					if got != ref {
						t.Fatalf("%s: pages of %d concatenate to %d bytes, not the unpaged %d", name, size, len(got), len(ref))
					}
					if size != 1 {
						continue
					}
					if refNexts == nil {
						refNexts = nexts
					} else if !slices.Equal(nexts, refNexts) {
						t.Fatalf("%s: the positions after each emission vary with Workers or Mode", name)
					}
					if pq.units {
						checkUnitBoundary(t, name, g, pq, q, nexts, ref)
					}
				}
			}
		}
	}
}

// checkUnitBoundary reads a page that ends exactly where a unit begins,
// then the rest of the stream from its Next: the two must concatenate to
// the unpaged stream. nexts are the positions after each emission (page
// size 1), which also show that the run has several units that emit,
// the first of them unit 0 — except for the 4-cliques, whose first
// color tuples hold none, so three units must emit.
func checkUnitBoundary(t *testing.T, name string, g *Graph, pq pagedQuery, q Query, nexts []Position, ref string) {
	t.Helper()
	units := map[int]bool{}
	for _, p := range nexts {
		units[p.Unit] = true
	}
	if len(units) < 3 || !units[0] && pq.name != "cliques4" {
		t.Fatalf("%s: emissions fall in units %v; the test needs unit 0 and at least two more", name, units)
	}
	b := 0 // the first emission that begins a unit after the first
	for i, p := range nexts {
		if i > 0 && p.UnitStart == uint64(i) {
			b = i
			break
		}
	}
	if b == 0 {
		t.Fatalf("%s: no unit boundary among %d emissions", name, len(nexts))
	}
	head := q
	head.Limit = uint64(b)
	var out []byte
	res, err := pq.run(g, head, func(vs []uint32) { out = fmt.Appendf(out, "%v", vs) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Next != nexts[b-1] || res.Next.Unit == nexts[b].Unit {
		t.Fatalf("%s: page ending at unit boundary %d reports Next %+v, want %+v in the unit before %d", name, b, res.Next, nexts[b-1], nexts[b].Unit)
	}
	tail := q
	tail.From = res.Next
	if _, err := pq.run(g, tail, func(vs []uint32) { out = fmt.Appendf(out, "%v", vs) }); err != nil {
		t.Fatal(err)
	}
	if string(out) != ref {
		t.Fatalf("%s: a page ending on unit boundary %d and the rest of the stream differ from the unpaged stream", name, b)
	}
}

// TestInvalidPosition pins the positions Query.From refuses, each with
// ErrInvalidPosition and before any emission; on an edgeless graph,
// whose queries have no unit, that includes unit 1 of every query with
// units.
func TestInvalidPosition(t *testing.T) {
	g := pagingGraph(t)
	edgeless, err := Build(FromEdges([][2]uint32{{1, 1}}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { edgeless.Close() })
	type invalidCase struct {
		name string
		g    *Graph
		pq   pagedQuery
		from Position
	}
	cases := []invalidCase{
		{"unit starts after the position", g, pagedQueries[0], Position{Emitted: 3, Unit: 2, UnitStart: 4}},
		{"negative unit", g, pagedQueries[0], Position{Emitted: 3, Unit: -1}},
		{"unit 0 not at emission 0", g, pagedQueries[0], Position{Emitted: 3, UnitStart: 1}},
		{"unit on an ordered stream", g, pagedQueries[4], Position{Emitted: 3, Unit: 1, UnitStart: 2}},
		{"unit on a baseline", g, pagedQueries[3], Position{Emitted: 3, Unit: 1, UnitStart: 2}},
		{"cacheaware unit past the last", g, pagedQueries[0], Position{Emitted: 3, Unit: 1 << 20, UnitStart: 3}},
		{"oblivious unit past the last", g, pagedQueries[1], Position{Emitted: 3, Unit: 1 << 20, UnitStart: 3}},
		{"deterministic unit past the last", g, pagedQueries[2], Position{Emitted: 3, Unit: 1 << 20, UnitStart: 3}},
		{"cliques unit past the last", g, pagedQueries[5], Position{Emitted: 3, Unit: 1 << 20, UnitStart: 3}},
		{"match unit past the last", g, pagedQueries[6], Position{Emitted: 3, Unit: 1 << 20, UnitStart: 3}},
	}
	for _, pq := range pagedQueries {
		if pq.units {
			cases = append(cases, invalidCase{"edgeless " + pq.name + " unit 1", edgeless, pq, Position{Emitted: 3, Unit: 1, UnitStart: 3}})
		}
	}
	for _, c := range cases {
		for _, mode := range []ExecMode{ModeSimulated, ModeNative} {
			n := 0
			_, err := c.pq.run(c.g, Query{Seed: 3, Mode: mode, From: c.from}, func([]uint32) { n++ })
			if !errors.Is(err, ErrInvalidPosition) || n != 0 {
				t.Errorf("%s, mode %d: err %v after %d emissions; want ErrInvalidPosition before any", c.name, mode, err, n)
			}
		}
	}
}
