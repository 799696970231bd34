package subgraph

import (
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
)

// brutePattern counts pattern copies by enumerating all injective maps
// and dividing by |Aut(H)|.
func brutePattern(el graph.EdgeList, p *Pattern) uint64 {
	adj := map[uint64]bool{}
	verts := map[uint32]bool{}
	for _, e := range el.Edges {
		adj[e] = true
		verts[graph.U(e)] = true
		verts[graph.V(e)] = true
	}
	var ids []uint32
	for v := range verts {
		ids = append(ids, v)
	}
	k := p.K()
	hEdges := p.Edges()
	var maps uint64
	assign := make([]uint32, k)
	used := map[uint32]bool{}
	var rec func(pos int)
	rec = func(pos int) {
		if pos == k {
			maps++
			return
		}
		for _, v := range ids {
			if used[v] {
				continue
			}
			ok := true
			for _, e := range hEdges {
				var other int
				switch {
				case e[0] == pos && e[1] < pos:
					other = e[1]
				case e[1] == pos && e[0] < pos:
					other = e[0]
				default:
					continue
				}
				if !adj[graph.Pack(assign[other], v)] {
					ok = false
					break
				}
			}
			if ok {
				used[v] = true
				assign[pos] = v
				rec(pos + 1)
				used[v] = false
			}
		}
	}
	rec(0)
	return maps / uint64(p.Automorphisms())
}

func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		p    *Pattern
		want int
	}{
		{Triangle, 6}, {Path3, 2}, {Cycle4, 8}, {Diamond, 4}, {K4, 24}, {Star3, 6}, {House, 2},
	}
	for _, c := range cases {
		if got := c.p.Automorphisms(); got != c.want {
			t.Errorf("%s: |Aut| = %d, want %d", c.p.Name(), got, c.want)
		}
	}
}

func TestPatternValidation(t *testing.T) {
	if _, err := NewPattern("disconnected", 4, [][2]int{{0, 1}, {2, 3}}); err == nil {
		t.Error("disconnected pattern accepted")
	}
	if _, err := NewPattern("selfloop", 3, [][2]int{{0, 0}, {0, 1}, {1, 2}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewPattern("huge", 9, nil); err == nil {
		t.Error("k=9 accepted")
	}
	if _, err := NewPattern("oob", 3, [][2]int{{0, 5}}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestPatternEnumerateKnownCounts(t *testing.T) {
	// On K_n the copy counts have closed forms.
	n := 8
	el := graph.Clique(n)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	cases := []struct {
		p    *Pattern
		want uint64
	}{
		{Triangle, binom(n, 3)},
		{Path3, 3 * binom(n, 3)}, // 3 wedges per vertex triple
		{K4, binom(n, 4)},
		{Cycle4, 3 * binom(n, 4)},  // 3 C4s per 4-set
		{Diamond, 6 * binom(n, 4)}, // 6 diamonds per 4-set
		{Star3, 4 * binom(n, 4)},   // 4 claws per 4-set
	}
	for _, c := range cases {
		info, _, err := c.p.EnumerateParallel(sp, g, 3, testExec, func([]uint32) {})
		if err != nil {
			t.Fatal(err)
		}
		if info.Cliques != c.want {
			t.Errorf("%s on K%d: %d copies, want %d", c.p.Name(), n, info.Cliques, c.want)
		}
	}
}

func TestPatternEnumerateAgainstBruteForce(t *testing.T) {
	workloads := []graph.EdgeList{
		graph.GNM(25, 90, 1),
		graph.PlantedClique(30, 60, 6, 2),
		graph.Grid(4, 5),
	}
	pats := []*Pattern{Triangle, Path3, Cycle4, Diamond, Star3, K4, House}
	for wi, el := range workloads {
		for _, p := range pats {
			want := brutePattern(el, p)
			sp := newSpace()
			g := graph.CanonicalizeList(sp, el)
			info, _, err := p.EnumerateParallel(sp, g, 9, testExec, func([]uint32) {})
			if err != nil {
				t.Fatal(err)
			}
			if info.Cliques != want {
				t.Errorf("workload %d, %s: got %d, want %d", wi, p.Name(), info.Cliques, want)
			}
		}
	}
}

func TestPatternTriangleAgreesWithKClique(t *testing.T) {
	el := graph.GNM(60, 400, 5)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	pi, _, err := Triangle.EnumerateParallel(sp, g, 3, testExec, func([]uint32) {})
	if err != nil {
		t.Fatal(err)
	}
	ki, _, err := KCliqueParallel(sp, g, 3, 3, testExec, func([]uint32) {})
	if err != nil {
		t.Fatal(err)
	}
	if pi.Cliques != ki.Cliques {
		t.Errorf("pattern triangle %d != kclique %d", pi.Cliques, ki.Cliques)
	}
}

func TestPatternEnumerateManyColors(t *testing.T) {
	// Force c > 1 to exercise the tuple decomposition with both bucket
	// orientations.
	el := graph.PlantedClique(150, 900, 9, 4)
	want := brutePattern(el, Diamond)
	sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
	g := graph.CanonicalizeList(sp, el)
	info, _, err := Diamond.EnumerateParallel(sp, g, 7, testExec, func([]uint32) {})
	if err != nil {
		t.Fatal(err)
	}
	if info.Colors < 2 {
		t.Skipf("only %d colors at this size", info.Colors)
	}
	if info.Cliques != want {
		t.Errorf("diamond copies %d, want %d", info.Cliques, want)
	}
}

func TestPatternEmissionsAreValidEmbeddings(t *testing.T) {
	el := graph.GNM(40, 200, 6)
	adjSet := map[uint64]bool{}
	for _, e := range el.Edges {
		adjSet[e] = true
	}
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	seen := map[[4]uint32]bool{}
	_, _, err := Cycle4.EnumerateParallel(sp, g, 8, testExec, func(vs []uint32) {
		// Translate ranks back to original ids and check all H-edges.
		var orig [4]uint32
		for i, v := range vs {
			orig[i] = g.RankToID[v]
		}
		for _, e := range Cycle4.Edges() {
			if !adjSet[graph.Pack(orig[e[0]], orig[e[1]])] {
				t.Fatalf("emitted %v but H-edge %v missing in G", orig, e)
			}
		}
		if seen[orig] {
			t.Fatalf("duplicate embedding %v", orig)
		}
		seen[orig] = true
	})
	if err != nil {
		t.Fatal(err)
	}
}
