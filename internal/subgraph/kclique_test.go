package subgraph

import (
	"sort"
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/trienum"
)

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
			info, err := KClique(nil, sp, g, k, 42, func([]uint32) {})
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
			info, err := KClique(nil, sp, g, k, 7, func([]uint32) {})
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
	_, err := KClique(nil, sp, g, 4, 3, func(vs []uint32) {
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
	info, err := KClique(nil, sp, g, 4, 11, func([]uint32) {})
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
	if _, err := KClique(nil, sp, g, 2, 1, func([]uint32) {}); err == nil {
		t.Error("k=2 should be rejected")
	}
}

// TestCountTrianglesBridge sanity-bridges k=3 to the triangle algorithms:
// the 3-clique count must equal what the cache-aware engine reports.
func TestCountTrianglesBridge(t *testing.T) {
	sp := newSpace()
	g := graph.CanonicalizeList(sp, graph.GNM(70, 500, 13))
	info, err := KClique(nil, sp, g, 3, 99, func([]uint32) {})
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
