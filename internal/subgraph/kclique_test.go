package subgraph

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
	"repro/internal/trienum"
)

// testExec is the engine configuration of the tests that do not vary it.
var testExec = trienum.Exec{Workers: 2}

func newSpace() *extmem.Space {
	return extmem.NewSpace(extmem.Config{M: 1 << 12, B: 1 << 6})
}

func binom(n, k int) uint64 {
	if k > n {
		return 0
	}
	r := uint64(1)
	for i := 0; i < k; i++ {
		r = r * uint64(n-i) / uint64(i+1)
	}
	return r
}

func TestKCliqueOnCliques(t *testing.T) {
	for _, n := range []int{5, 8, 12} {
		for _, k := range []int{3, 4, 5} {
			sp := newSpace()
			g := graph.CanonicalizeList(sp, graph.Clique(n))
			info, _, err := KCliqueParallel(sp, g, k, 42, testExec, func([]uint32) {})
			if err != nil {
				t.Fatal(err)
			}
			if want := binom(n, k); info.Cliques != want {
				t.Errorf("K_%d: %d %d-cliques, want %d", n, info.Cliques, k, want)
			}
		}
	}
}

// bruteCliques counts k-cliques by exhaustive extension over original ids.
func bruteCliques(el graph.EdgeList, k int) uint64 {
	adjSet := map[uint64]bool{}
	verts := map[uint32]bool{}
	for _, e := range el.Edges {
		adjSet[e] = true
		verts[graph.U(e)] = true
		verts[graph.V(e)] = true
	}
	var ids []uint32
	for v := range verts {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var count uint64
	var rec func(chosen []uint32, start int)
	rec = func(chosen []uint32, start int) {
		if len(chosen) == k {
			count++
			return
		}
		for i := start; i < len(ids); i++ {
			v := ids[i]
			ok := true
			for _, u := range chosen {
				if !adjSet[graph.Pack(u, v)] {
					ok = false
					break
				}
			}
			if ok {
				rec(append(chosen, v), i+1)
			}
		}
	}
	rec(nil, 0)
	return count
}

func TestKCliqueAgainstBruteForce(t *testing.T) {
	workloads := []graph.EdgeList{
		graph.GNM(40, 300, 1),
		graph.PlantedClique(50, 120, 8, 2),
		graph.PowerLaw(60, 250, 2.4, 3),
		graph.Grid(5, 5),
	}
	for wi, el := range workloads {
		for _, k := range []int{3, 4} {
			want := bruteCliques(el, k)
			sp := newSpace()
			g := graph.CanonicalizeList(sp, el)
			info, _, err := KCliqueParallel(sp, g, k, 7, testExec, func([]uint32) {})
			if err != nil {
				t.Fatal(err)
			}
			if info.Cliques != want {
				t.Errorf("workload %d k=%d: got %d cliques, want %d", wi, k, info.Cliques, want)
			}
		}
	}
}

func TestKCliqueEmitsSortedDistinct(t *testing.T) {
	el := graph.PlantedClique(40, 100, 7, 5)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	seen := map[[4]uint32]bool{}
	_, _, err := KCliqueParallel(sp, g, 4, 3, testExec, func(vs []uint32) {
		if len(vs) != 4 {
			t.Fatal("wrong clique size")
		}
		var key [4]uint32
		for i, v := range vs {
			key[i] = v
			if i > 0 && vs[i-1] >= v {
				t.Fatalf("clique not strictly increasing: %v", vs)
			}
		}
		if seen[key] {
			t.Fatalf("duplicate clique %v", vs)
		}
		seen[key] = true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKCliqueSmallMemoryManyColors(t *testing.T) {
	// Force c > 1 so the tuple decomposition is exercised.
	el := graph.PlantedClique(120, 900, 10, 9)
	want := bruteCliques(el, 4)
	sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
	g := graph.CanonicalizeList(sp, el)
	info, _, err := KCliqueParallel(sp, g, 4, 11, testExec, func([]uint32) {})
	if err != nil {
		t.Fatal(err)
	}
	if info.Colors < 2 {
		t.Errorf("expected multiple colors, got %d", info.Colors)
	}
	if info.Cliques != want {
		t.Errorf("got %d 4-cliques, want %d", info.Cliques, want)
	}
}

func TestKCliqueRejectsSmallK(t *testing.T) {
	sp := newSpace()
	g := graph.CanonicalizeList(sp, graph.Clique(4))
	if _, _, err := KCliqueParallel(sp, g, 2, 1, testExec, func([]uint32) {}); err == nil {
		t.Error("k=2 should be rejected")
	}
}

// TestCountTrianglesBridge sanity-bridges k=3 to the triangle algorithms:
// the 3-clique count must equal what the cache-aware engine reports.
func TestCountTrianglesBridge(t *testing.T) {
	sp := newSpace()
	g := graph.CanonicalizeList(sp, graph.GNM(70, 500, 13))
	info, _, err := KCliqueParallel(sp, g, 3, 99, testExec, func([]uint32) {})
	if err != nil {
		t.Fatal(err)
	}
	var viaT uint64
	if _, _, err := trienum.CacheAwareParallel(sp, g, 99, trienum.Exec{Workers: 2}, graph.Counter(&viaT)); err != nil {
		t.Fatal(err)
	}
	if info.Cliques != viaT {
		t.Errorf("k-clique path found %d triangles, triangle algorithm %d", info.Cliques, viaT)
	}
}

// referenceKClique is KClique as first written, kept as the oracle of the
// flat tuple solver: a comparator sort of the edges by color pair, a
// count scan for the bucket offsets, and per color tuple a Go map from
// cone vertex to its sorted forward neighbours, with every color looked
// up by hashing.
func referenceKClique(sp *extmem.Space, g graph.Canonical, k int, seed uint64, emit EmitK) Info {
	var info Info
	E := g.Edges.Len()
	if E == 0 {
		return info
	}
	mark := sp.Mark()
	defer sp.Release(mark)
	c := tupleColors(E, sp.Config().M, k, 1<<22)
	info.Colors = c
	col := hashing.NewColoring(hashing.NewRand(seed), c)
	edges := sp.Alloc(E)
	g.Edges.CopyTo(edges)
	pairKey := func(e extmem.Word) uint64 {
		return uint64(col.Color(graph.U(e)))*uint64(c) + uint64(col.Color(graph.V(e)))
	}
	emsort.SortRecords(edges, 1, pairKey)
	off := make([]int64, c*c+1)
	for i := int64(0); i < E; i++ {
		off[pairKey(edges.Read(i))+1]++
	}
	for b := 1; b <= c*c; b++ {
		off[b] += off[b-1]
	}
	tuple := make([]int, k)
	verts := make([]uint32, k)
	var iterate func(pos int)
	iterate = func(pos int) {
		if pos == k {
			referenceSolveTuple(sp, edges, off, c, col.Color, tuple, verts, &info, emit)
			return
		}
		for t := 0; t < c; t++ {
			tuple[pos] = t
			iterate(pos + 1)
		}
	}
	iterate(0)
	return info
}

// referenceSolveTuple loads the union of the C(k,2) buckets for one color
// tuple into a Go map and enumerates its properly colored k-cliques.
func referenceSolveTuple(sp *extmem.Space, edges extmem.Extent, off []int64, c int, colorOf func(uint32) uint32, tuple []int, verts []uint32, info *Info, emit EmitK) {
	k := len(tuple)
	type rng struct{ lo, hi int64 }
	var ranges []rng
	var total int64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b := tuple[i]*c + tuple[j]
			r := rng{off[b], off[b+1]}
			if r.lo == r.hi {
				return
			}
			if !slices.Contains(ranges, r) {
				ranges = append(ranges, r)
				total += r.hi - r.lo
			}
		}
	}
	info.Subproblems++
	if total > info.MaxSubproblem {
		info.MaxSubproblem = total
	}
	release := sp.LeaseAtMost(int(total) * 3)
	defer release()
	adj := make(map[uint32][]uint32)
	for _, r := range ranges {
		for i := r.lo; i < r.hi; i++ {
			e := edges.Read(i)
			adj[graph.U(e)] = append(adj[graph.U(e)], graph.V(e))
		}
	}
	starts := make([]uint32, 0, len(adj))
	for v, l := range adj {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		starts = append(starts, v)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	var extend func(pos int, cands []uint32)
	extend = func(pos int, cands []uint32) {
		for _, v := range cands {
			if colorOf(v) != uint32(tuple[pos]) {
				continue
			}
			verts[pos] = v
			if pos == k-1 {
				info.Cliques++
				emit(verts)
				continue
			}
			extend(pos+1, referenceIntersect(cands, adj[v], v))
		}
	}
	for _, v := range starts {
		if colorOf(v) != uint32(tuple[0]) {
			continue
		}
		verts[0] = v
		extend(1, adj[v])
	}
}

// referenceIntersect returns the elements > floor present in both sorted
// lists.
func referenceIntersect(a, b []uint32, floor uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if a[i] > floor {
				out = append(out, a[i])
			}
			i++
			j++
		}
	}
	return out
}

// TestKCliqueMatchesReference pins the flat tuple solver against the map
// reference: the clique stream, order included, and every Info field, for
// k = 3, 4 (and 5 on the larger machine), simulated and native, on a skewed and a uniform graph
// and on a machine whose color-pair distribution needs two passes.
func TestKCliqueMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		el   graph.EdgeList
		cfg  extmem.Config
		ks   []int
	}{
		{"powerlaw", graph.PowerLaw(1000, 6000, 2.1, 31), extmem.Config{M: 1 << 10, B: 1 << 5}, []int{3, 4, 5}},
		{"gnm", graph.GNM(300, 6000, 32), extmem.Config{M: 1 << 10, B: 1 << 5}, []int{3, 4, 5}},
		{"two-pass", graph.GNM(250, 5000, 33), extmem.Config{M: 1 << 8, B: 1 << 4}, []int{3, 4}},
	}
	for _, tc := range cases {
		for _, k := range tc.ks {
			var want [][]uint32
			sp := extmem.NewSpace(tc.cfg)
			ref := referenceKClique(sp, graph.CanonicalizeList(sp, tc.el), k, 17, func(vs []uint32) {
				want = append(want, slices.Clone(vs))
			})
			if ref.Colors < 2 {
				t.Fatalf("%s k=%d: %d colors; the case must exercise the color tuples", tc.name, k, ref.Colors)
			}
			// On M=2^8, B=2^4 more than 16 buckets take at least two
			// distribution passes (pinned in emsort's Distribute tests).
			if tc.name == "two-pass" && ref.Colors*ref.Colors <= 16 {
				t.Fatalf("%s k=%d: %d colors distribute in one pass", tc.name, k, ref.Colors)
			}
			for _, native := range []bool{false, true} {
				name := fmt.Sprintf("%s/k=%d/native=%v", tc.name, k, native)
				cfg := tc.cfg
				cfg.Native = native
				sp := extmem.NewSpace(cfg)
				var got [][]uint32
				info, _, err := KCliqueParallel(sp, graph.CanonicalizeList(sp, tc.el), k, 17, testExec, func(vs []uint32) {
					got = append(got, slices.Clone(vs))
				})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(got, want, slices.Equal[[]uint32]) {
					t.Errorf("%s: stream of %d cliques differs from the reference's %d", name, len(got), len(want))
				}
				if info != ref {
					t.Errorf("%s: info %+v, reference %+v", name, info, ref)
				}
			}
		}
	}
}
