package trienum

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
)

func newSpace() *extmem.Space {
	return extmem.NewSpace(extmem.Config{M: 1 << 12, B: 1 << 6})
}

func smallSpace() *extmem.Space {
	// Deliberately tiny memory to stress chunking and recursion paths.
	return extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
}

// algorithm is one entry point at one worker count, returning its Info.
type algorithm struct {
	name string
	run  func(sp *extmem.Space, g graph.Canonical, emit graph.Emit) Info
}

// algorithms runs each of the three engines at Workers=1 (the sequential
// run) and Workers=4 (the pool).
var algorithms = func() []algorithm {
	var out []algorithm
	for _, eng := range parallelEngines {
		for _, workers := range []int{1, 4} {
			out = append(out, algorithm{fmt.Sprintf("%s/workers=%d", eng.name, workers),
				func(sp *extmem.Space, g graph.Canonical, emit graph.Emit) Info {
					info, _ := eng.run(sp, g, Exec{Workers: workers}, emit)
					return info
				}})
		}
	}
	return out
}()

func enumerate(t *testing.T, sp *extmem.Space, el graph.EdgeList, alg algorithm) ([]graph.Triple, Info) {
	t.Helper()
	g := graph.CanonicalizeList(sp, el)
	var got []graph.Triple
	info := alg.run(sp, g, func(a, b, c uint32) {
		got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
	})
	return got, info
}

func checkAgainstOracle(t *testing.T, name string, el graph.EdgeList, sp *extmem.Space) {
	t.Helper()
	oracle := graph.NewOracle(el)
	for _, alg := range algorithms {
		got, info := enumerate(t, sp, el, alg)
		if ok, diag := oracle.SameSet(got); !ok {
			t.Errorf("%s/%s: wrong triangle set (want %d, got %d): %s",
				name, alg.name, oracle.Count(), len(got), diag)
		}
		if info.Triangles != uint64(len(got)) {
			t.Errorf("%s/%s: Info.Triangles=%d but %d emits", name, alg.name, info.Triangles, len(got))
		}
	}
}

func TestAlgorithmsOnWorkloads(t *testing.T) {
	workloads := map[string]graph.EdgeList{
		"empty":         {},
		"singleEdge":    {NumVertices: 2, Edges: []uint64{graph.Pack(0, 1)}},
		"triangle":      graph.Clique(3),
		"k4":            graph.Clique(4),
		"k10":           graph.Clique(10),
		"k20":           graph.Clique(20),
		"path":          graph.Grid(1, 20),
		"grid":          graph.Grid(7, 8),
		"bipartite":     graph.BipartiteRandom(20, 20, 150, 3),
		"gnmSparse":     graph.GNM(100, 300, 5),
		"gnmDense":      graph.GNM(40, 500, 6),
		"powerlaw":      graph.PowerLaw(120, 500, 2.2, 7),
		"rmat":          graph.RMAT(7, 400, 8),
		"sells":         graph.Sells(15, 8, 8, 3, 0.4, 9),
		"planted":       graph.PlantedClique(80, 150, 9, 10),
		"twoCliques":    twoCliques(8, 8),
		"star":          star(30),
		"wheel":         wheel(16),
		"cliquePlusIso": cliquePlusPath(9),
	}
	for name, el := range workloads {
		t.Run(name, func(t *testing.T) {
			checkAgainstOracle(t, name, el, newSpace())
		})
	}
}

func TestAlgorithmsUnderTinyMemory(t *testing.T) {
	// With M=256 words and B=16, E >> M: forces many colors, kernel
	// chunking, deep oblivious recursion.
	workloads := map[string]graph.EdgeList{
		"k24":      graph.Clique(24),
		"gnm":      graph.GNM(150, 1200, 11),
		"powerlaw": graph.PowerLaw(200, 1500, 2.1, 12),
		"planted":  graph.PlantedClique(120, 600, 12, 13),
	}
	for name, el := range workloads {
		t.Run(name, func(t *testing.T) {
			checkAgainstOracle(t, name, el, smallSpace())
		})
	}
}

func TestSeedIndependence(t *testing.T) {
	// Different seeds must give the same triangle set for the randomized
	// algorithms.
	el := graph.GNM(80, 500, 20)
	oracle := graph.NewOracle(el)
	for _, seed := range []uint64{1, 2, 99999, ^uint64(0)} {
		for _, workers := range []int{1, 4} {
			exec := Exec{Workers: workers}
			for _, run := range []func(sp *extmem.Space, g graph.Canonical, e graph.Emit) (Info, []extmem.Stats, error){
				func(sp *extmem.Space, g graph.Canonical, e graph.Emit) (Info, []extmem.Stats, error) {
					return CacheAwareParallel(sp, g, seed, exec, e)
				},
				func(sp *extmem.Space, g graph.Canonical, e graph.Emit) (Info, []extmem.Stats, error) {
					return ObliviousParallel(sp, g, seed, exec, e)
				},
			} {
				sp := newSpace()
				g := graph.CanonicalizeList(sp, el)
				var got []graph.Triple
				if _, _, err := run(sp, g, func(a, b, c uint32) {
					got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
				}); err != nil {
					t.Fatal(err)
				}
				if ok, diag := oracle.SameSet(got); !ok {
					t.Errorf("seed %d workers %d: %s", seed, workers, diag)
				}
			}
		}
	}
}

func TestQuickRandomGraphs(t *testing.T) {
	// Property: on arbitrary small random graphs every algorithm agrees
	// with the oracle exactly.
	prop := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%40 + 4
		m := int(mRaw)%300 + 1
		el := graph.GNM(n, m, seed)
		oracle := graph.NewOracle(el)
		for _, alg := range algorithms {
			sp := newSpace()
			g := graph.CanonicalizeList(sp, el)
			var got []graph.Triple
			alg.run(sp, g, func(a, b, c uint32) {
				got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
			})
			if ok, _ := oracle.SameSet(got); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEmitOrderingInvariant(t *testing.T) {
	// Every emission must satisfy v1 < v2 < v3 in rank space.
	el := graph.PlantedClique(60, 200, 10, 3)
	for _, alg := range algorithms {
		sp := newSpace()
		g := graph.CanonicalizeList(sp, el)
		bad := 0
		alg.run(sp, g, func(a, b, c uint32) {
			if !(a < b && b < c) {
				bad++
			}
		})
		if bad > 0 {
			t.Errorf("%s: %d emissions violated v1<v2<v3", alg.name, bad)
		}
	}
}

func TestLemma1EnumerateContaining(t *testing.T) {
	// All triangles through a fixed vertex of K6.
	el := graph.Clique(6)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	var got []graph.Triple
	enumerateContaining(sp, g.Edges, 5, emsort.SortRecords, func(u, w uint32) {
		got = append(got, graph.MakeTriple(5, u, w))
	})
	if len(got) != 10 { // C(5,2) triangles through any vertex of K6
		t.Errorf("got %d triangles through vertex, want 10", len(got))
	}
	seen := map[graph.Triple]bool{}
	for _, tr := range got {
		if seen[tr] {
			t.Errorf("duplicate %v", tr)
		}
		seen[tr] = true
	}
}

func TestLemma1NoFalsePositives(t *testing.T) {
	// Star graph: no triangles through the center.
	el := star(10)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	center := uint32(g.NumVertices - 1) // highest degree rank is the hub
	count := 0
	enumerateContaining(sp, g.Edges, center, emsort.SortRecords, func(u, w uint32) { count++ })
	if count != 0 {
		t.Errorf("star center produced %d triangles", count)
	}
}

func TestKernelMatchesHuEtAlSemantics(t *testing.T) {
	// With pivots = all edges, the kernel must enumerate every triangle.
	el := graph.GNM(50, 350, 30)
	oracle := graph.NewOracle(el)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	var got []graph.Triple
	if err := kernel(nil, sp, g.Edges, g.Edges, 0, nil, func(a, b, c uint32) {
		got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
	}); err != nil {
		t.Fatal(err)
	}
	if ok, diag := oracle.SameSet(got); !ok {
		t.Errorf("kernel: %s", diag)
	}
}

func TestKernelPivotRestriction(t *testing.T) {
	// With pivots = a single edge, only triangles with that pivot appear.
	el := graph.Clique(8)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	// Take the last canonical edge {6,7}: as the highest pair it is the
	// pivot of exactly 6 triangles of K8.
	pivot := g.Edges.Slice(g.Edges.Len()-1, g.Edges.Len())
	pe := pivot.Read(0)
	var got []graph.Triple
	if err := kernel(nil, sp, g.Edges, pivot, 0, nil, func(a, b, c uint32) {
		got = append(got, graph.Triple{V1: a, V2: b, V3: c})
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("pivot restriction: got %d triangles, want 6", len(got))
	}
	for _, tr := range got {
		if tr.V2 != graph.U(pe) || tr.V3 != graph.V(pe) {
			t.Errorf("triangle %v does not have pivot %d-%d", tr, graph.U(pe), graph.V(pe))
		}
	}
}

func TestKernelTinyChunks(t *testing.T) {
	// Force many chunk iterations (memEdges=4).
	el := graph.Clique(12)
	oracle := graph.NewOracle(el)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	var got []graph.Triple
	if err := kernel(nil, sp, g.Edges, g.Edges, 4, nil, func(a, b, c uint32) {
		got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
	}); err != nil {
		t.Fatal(err)
	}
	if ok, diag := oracle.SameSet(got); !ok {
		t.Errorf("chunked kernel: %s", diag)
	}
}

func TestDementievSortMerge(t *testing.T) {
	for _, name := range []string{"gnm", "clique", "grid"} {
		var el graph.EdgeList
		switch name {
		case "gnm":
			el = graph.GNM(60, 400, 40)
		case "clique":
			el = graph.Clique(15)
		case "grid":
			el = graph.Grid(6, 6)
		}
		oracle := graph.NewOracle(el)
		sp := newSpace()
		g := graph.CanonicalizeList(sp, el)
		var got []graph.Triple
		if err := DementievSortMerge(nil, sp, g.Edges, emsort.SortRecords, nil, func(a, b, c uint32) {
			got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
		}); err != nil {
			t.Fatal(err)
		}
		if ok, diag := oracle.SameSet(got); !ok {
			t.Errorf("%s: %s", name, diag)
		}
	}
}

func TestDementievFilter(t *testing.T) {
	el := graph.Clique(10)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	count := 0
	if err := DementievSortMerge(nil, sp, g.Edges, emsort.SortRecords,
		func(a, b, c uint32) bool { return a == 0 }, // only cone rank 0
		func(a, b, c uint32) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 36 { // C(9,2)
		t.Errorf("filtered count %d, want 36", count)
	}
}

func TestDeterministicInvariantRecorded(t *testing.T) {
	// Force multiple greedy levels: E/M = 2^6 -> c = 8, 3 levels.
	el := graph.GNM(400, 4096, 50)
	sp := extmem.NewSpace(extmem.Config{M: 1 << 6, B: 1 << 3})
	g := graph.CanonicalizeList(sp, el)
	var n uint64
	info, _, err := DeterministicParallel(sp, g, 0, Exec{Workers: 4}, graph.Counter(&n))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Levels) == 0 {
		t.Fatal("no greedy levels recorded despite E >> M")
	}
	for i, lv := range info.Levels {
		if lv.Potential > lv.Budget {
			t.Errorf("level %d: potential %.0f exceeds budget %.0f", i, lv.Potential, lv.Budget)
		}
	}
	// X_ξ of the final coloring must satisfy the theorem's X < e·E·M.
	e := float64(g.Edges.Len())
	m := float64(sp.Config().M)
	if float64(info.X) > 2.72*e*m {
		t.Errorf("final X=%d exceeds e·E·M=%.0f", info.X, 2.72*e*m)
	}
	if info.Triangles != graph.NewOracle(el).Count() {
		t.Errorf("triangles %d, oracle %d", info.Triangles, graph.NewOracle(el).Count())
	}
}

func TestCacheAwareInfoFields(t *testing.T) {
	el := graph.PlantedClique(100, 800, 14, 17)
	sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
	g := graph.CanonicalizeList(sp, el)
	var n uint64
	info, _, err := CacheAwareParallel(sp, g, 7, Exec{Workers: 4}, graph.Counter(&n))
	if err != nil {
		t.Fatal(err)
	}
	if info.Colors < 2 {
		t.Errorf("expected multiple colors with E=%d >> M=%d, got c=%d", g.Edges.Len(), sp.Config().M, info.Colors)
	}
	if info.Subproblems == 0 {
		t.Error("no subproblems recorded")
	}
	if info.Triangles != n {
		t.Error("count mismatch")
	}
}

func TestObliviousInfoFields(t *testing.T) {
	el := graph.GNM(120, 900, 21)
	sp := smallSpace()
	g := graph.CanonicalizeList(sp, el)
	var n uint64
	info, _, err := ObliviousParallel(sp, g, 3, Exec{Workers: 4}, graph.Counter(&n))
	if err != nil {
		t.Fatal(err)
	}
	if info.Subproblems < 8 {
		t.Errorf("recursion did not branch: %d subproblems", info.Subproblems)
	}
	if info.BaseCases == 0 {
		t.Error("no base cases recorded")
	}
}

// Helper graph shapes.

func twoCliques(a, b int) graph.EdgeList {
	var el graph.EdgeList
	for u := 0; u < a; u++ {
		for v := u + 1; v < a; v++ {
			el.Add(uint32(u), uint32(v))
		}
	}
	off := a
	for u := 0; u < b; u++ {
		for v := u + 1; v < b; v++ {
			el.Add(uint32(off+u), uint32(off+v))
		}
	}
	el.Add(0, uint32(off)) // bridge, closes no triangle
	return el
}

func star(n int) graph.EdgeList {
	var el graph.EdgeList
	for i := 1; i <= n; i++ {
		el.Add(0, uint32(i))
	}
	return el
}

func wheel(n int) graph.EdgeList {
	var el graph.EdgeList
	for i := 1; i <= n; i++ {
		el.Add(0, uint32(i))
		next := i%n + 1
		el.Add(uint32(i), uint32(next))
	}
	return el
}

func cliquePlusPath(k int) graph.EdgeList {
	el := graph.Clique(k)
	for i := 0; i < 5; i++ {
		el.Add(uint32(k+i), uint32(k+i+1))
	}
	return el
}
