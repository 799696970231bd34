package trienum

import (
	"fmt"
	"math/rand"
	"slices"
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
	if err := kernel(nil, sp, g.Edges, g.Edges, 0, func(a, b, c uint32) {
		got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
	}); err != nil {
		t.Fatal(err)
	}
	if ok, diag := oracle.SameSet(got); !ok {
		t.Errorf("kernel: %s", diag)
	}

	// Hand-built inputs aimed at the flat tables, each as one chunk: the
	// stream must equal the map-based reference's, order included, and
	// between them the cases must take both enumeration branches.
	var pairs, scans int
	for _, kc := range kernelCases() {
		want, p, s := referenceKernel(kc.edges, kc.pivots, len(kc.pivots))
		pairs, scans = pairs+p, scans+s
		if got := runKernel(t, kc, len(kc.pivots)); !slices.Equal(got, want) {
			t.Errorf("%s: stream differs from the reference\n got %v\nwant %v", kc.name, got, want)
		}
	}
	if pairs == 0 || scans == 0 {
		t.Errorf("branch coverage: %d pair enumerations, %d pivot scans; want both > 0", pairs, scans)
	}
}

// TestKernelReservedVertex pins vertex id 2^32-1, which the Γ table's
// u+1 encoding cannot hold: as a non-pivot neighbour in the edge scan it
// is never taken for a Γ_mem vertex, and as a pivot endpoint it is found
// through its own slot. (The "maxID" kernel cases run it through both
// enumeration branches against the reference.)
func TestKernelReservedVertex(t *testing.T) {
	r := reservedVertex
	scanOnly := kernelCase{
		name:   "scanOnly",
		edges:  []extmem.Word{graph.Pack(0, 5), graph.Pack(0, 6), graph.Pack(0, r), graph.Pack(5, 6), graph.Pack(5, r)},
		pivots: []extmem.Word{graph.Pack(5, 6)},
	}
	want := []graph.Triple{{V1: 0, V2: 5, V3: 6}}
	if got := runKernel(t, scanOnly, 0); !slices.Equal(got, want) {
		t.Errorf("reserved id in the scan: got %v, want %v", got, want)
	}
	pivot := kernelCase{name: "pivot", edges: scanOnly.edges, pivots: []extmem.Word{graph.Pack(5, r)}}
	want = []graph.Triple{{V1: 0, V2: 5, V3: r}}
	if got := runKernel(t, pivot, 0); !slices.Equal(got, want) {
		t.Errorf("pivot endpoint 2^32-1: got %v, want %v", got, want)
	}
}

// kernelCase is a hand-built kernel input: edges sorted canonically, and
// pivots in the order the kernel loads them.
type kernelCase struct {
	name          string
	edges, pivots []extmem.Word
}

// kernelCases are inputs that stress the kernel's tables: vertex id 0,
// ids that share a home slot (including the last slot, so probes wrap),
// unsorted pivots, pivots that share endpoints, and random graphs whose
// cone vertices take both enumeration branches.
func kernelCases() []kernelCase {
	sorted := func(es []extmem.Word) []extmem.Word {
		es = slices.Clone(es)
		slices.Sort(es)
		return slices.Compact(es)
	}
	shuffled := func(es []extmem.Word, seed int64) []extmem.Word {
		es = slices.Clone(es)
		rand.New(rand.NewSource(seed)).Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		return es
	}
	var cases []kernelCase

	gnm := sorted(graph.GNM(50, 350, 30).Edges)
	cases = append(cases,
		kernelCase{"gnm", gnm, gnm},
		kernelCase{"gnmUnsortedPivots", gnm, shuffled(gnm, 1)},
		kernelCase{"gnmHalfPivots", gnm, shuffled(gnm, 2)[:len(gnm)/2]},
	)

	// K6 on 0..5: vertex 0 is a cone vertex and a pivot endpoint.
	k6 := sorted(graph.Clique(6).Edges)
	k6Reversed := slices.Clone(k6)
	slices.Reverse(k6Reversed)
	cases = append(cases, kernelCase{"k6", k6, k6}, kernelCase{"k6Reversed", k6, k6Reversed})

	// K10 on 0..4, 2^32-1, and four ids whose hashed home slot in the
	// 45-slot Γ table of a 15-pivot chunk is 2^32-1's: its lookups probe
	// past them. The pivots are the pairs among the four and 2^32-1, and
	// 2^32-1 with each of 0..4, so it is a Γ_mem vertex seen by every cone
	// vertex under both enumeration branches.
	maxID := append([]uint32{0, 1, 2, 3, 4, reservedVertex}, collidingIDs(45, homeSlot(uint64(reservedVertex), 45), 4, 1000)...)
	var maxEdges, maxPivots []extmem.Word
	for i, u := range maxID {
		for _, w := range maxID[i+1:] {
			e := graph.PackOrdered(u, w)
			maxEdges = append(maxEdges, e)
			if min(u, w) >= 1000 || max(u, w) == reservedVertex {
				maxPivots = append(maxPivots, e)
			}
		}
	}
	cases = append(cases,
		kernelCase{"maxID", sorted(maxEdges), maxPivots},
		kernelCase{"maxIDUnsortedPivots", sorted(maxEdges), shuffled(maxPivots, 5)},
	)

	// Six ids whose home slots coincide in the Γ table of a 15-pivot
	// chunk (45 slots): four at the last slot, two at slot 0, so the
	// last four wrap around into the first two's probe sequence. All 15
	// pairs are pivots; cone vertices 0, 1, 2 see all six, three, and a
	// different three of them.
	ids := append(collidingIDs(45, 44, 4, 1000), collidingIDs(45, 0, 2, 1000)...)
	var pivots, edges []extmem.Word
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			pivots = append(pivots, graph.Pack(ids[i], ids[j]))
		}
		edges = append(edges, graph.Pack(0, ids[i]), graph.Pack(1+uint32(i%2), ids[i]))
	}
	edges = sorted(append(edges, pivots...))
	cases = append(cases,
		kernelCase{"collisions", edges, pivots},
		kernelCase{"collisionsUnsortedPivots", edges, shuffled(pivots, 3)},
	)

	// A star of pivots around hub 100: every pivot shares it. Cone vertex
	// v sees the hub and the leaves 101+v, 101+v+10, ....
	var star []extmem.Word
	var starEdges []extmem.Word
	for leaf := uint32(101); leaf <= 130; leaf++ {
		star = append(star, graph.Pack(100, leaf))
	}
	for v := uint32(0); v < 10; v++ {
		starEdges = append(starEdges, graph.Pack(v, 100))
		for leaf := 101 + v; leaf <= 130; leaf += 10 {
			starEdges = append(starEdges, graph.Pack(v, leaf))
		}
	}
	starEdges = sorted(append(starEdges, star...))
	cases = append(cases, kernelCase{"sharedHub", starEdges, shuffled(star, 4)})
	return cases
}

// collidingIDs returns the first k ids at or above from whose home slot in
// a table of n slots is slot.
func collidingIDs(n, slot, k int, from uint32) []uint32 {
	var ids []uint32
	for u := from; len(ids) < k; u++ {
		if homeSlot(uint64(u), n) == slot {
			ids = append(ids, u)
		}
	}
	return ids
}

// runKernel stores kc in a fresh Space and returns the kernel's emission
// stream with chunks of memEdges pivots (0 = automatic).
func runKernel(t *testing.T, kc kernelCase, memEdges int) []graph.Triple {
	t.Helper()
	sp := newSpace()
	edges, pivots := sp.Alloc(int64(len(kc.edges))), sp.Alloc(int64(len(kc.pivots)))
	edges.Store(kc.edges)
	pivots.Store(kc.pivots)
	var got []graph.Triple
	if err := kernel(nil, sp, edges, pivots, memEdges, func(a, b, c uint32) {
		got = append(got, graph.Triple{V1: a, V2: b, V3: c})
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// referenceKernel is the kernel on Go maps, as it was first written: the
// oracle for the emission order of the flat tables. It processes chunks of
// memEdges pivots in order, each against a full scan of edges, and picks
// the same branch per cone vertex; it also counts how often each branch
// ran.
func referenceKernel(edges, pivots []extmem.Word, memEdges int) (out []graph.Triple, pairs, scans int) {
	for lo := 0; lo < len(pivots); lo += memEdges {
		chunk := pivots[lo:min(lo+memEdges, len(pivots))]
		pivotSet := map[extmem.Word]bool{}
		gammaMem := map[uint32]bool{}
		for _, e := range chunk {
			pivotSet[e] = true
			gammaMem[graph.U(e)] = true
			gammaMem[graph.V(e)] = true
		}
		var lv []uint32
		lvSet := map[uint32]bool{}
		flush := func(v uint32) {
			if len(lv) < 2 {
				return
			}
			if len(lv)*len(lv) <= len(chunk) {
				pairs++
				for i := range lv {
					for j := i + 1; j < len(lv); j++ {
						if pivotSet[graph.PackOrdered(lv[i], lv[j])] {
							out = append(out, graph.Triple{V1: v, V2: lv[i], V3: lv[j]})
						}
					}
				}
				return
			}
			scans++
			for _, e := range chunk {
				if lvSet[graph.U(e)] && lvSet[graph.V(e)] {
					out = append(out, graph.Triple{V1: v, V2: graph.U(e), V3: graph.V(e)})
				}
			}
		}
		for i, e := range edges {
			if i > 0 && graph.U(e) != graph.U(edges[i-1]) {
				flush(graph.U(edges[i-1]))
				lv, lvSet = lv[:0], map[uint32]bool{}
			}
			if gammaMem[graph.V(e)] {
				lv = append(lv, graph.V(e))
				lvSet[graph.V(e)] = true
			}
		}
		if len(edges) > 0 {
			flush(graph.U(edges[len(edges)-1]))
		}
	}
	return out, pairs, scans
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
	if err := kernel(nil, sp, g.Edges, pivot, 0, func(a, b, c uint32) {
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
	if err := kernel(nil, sp, g.Edges, g.Edges, 4, func(a, b, c uint32) {
		got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
	}); err != nil {
		t.Fatal(err)
	}
	if ok, diag := oracle.SameSet(got); !ok {
		t.Errorf("chunked kernel: %s", diag)
	}

	// The table inputs over several chunks: each chunk builds its own
	// tables, and the concatenated stream must still equal the
	// reference's.
	for _, kc := range kernelCases() {
		for _, memEdges := range []int{1, 2, 3, 5, 7} {
			want, _, _ := referenceKernel(kc.edges, kc.pivots, memEdges)
			if got := runKernel(t, kc, memEdges); !slices.Equal(got, want) {
				t.Errorf("%s, chunks of %d: stream differs from the reference\n got %v\nwant %v", kc.name, memEdges, got, want)
			}
		}
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
		if err := DementievSortMerge(nil, sp, g.Edges, emsort.SortRecords, func(a, b, c uint32) {
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
	if err := DementievSortMerge(nil, sp, g.Edges, emsort.SortRecords, func(a, b, c uint32) {
		if a == 0 { // only cone rank 0
			count++
		}
	}); err != nil {
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
	info, _, err := DeterministicParallel(sp, g, Exec{Workers: 4}, graph.Counter(&n))
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
