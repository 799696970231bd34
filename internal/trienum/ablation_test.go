package trienum

import (
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
)

// TestAblationHighDegreeCorrectness: removing step 1 must not change the
// triangle set (the color triples cover everything); it only costs I/Os.
func TestAblationHighDegreeCorrectness(t *testing.T) {
	workloads := map[string]graph.EdgeList{
		"powerlaw": graph.PowerLaw(300, 1500, 2.0, 1),
		"star+k":   starPlusClique(),
		"clique":   graph.Clique(20),
	}
	for name, el := range workloads {
		oracle := graph.NewOracle(el)
		for _, workers := range []int{1, 4} {
			sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
			g := graph.CanonicalizeList(sp, el)
			var got []graph.Triple
			info, _, err := CacheAwareParallel(sp, g, 7, Exec{Workers: workers, DisableHighDegree: true}, func(a, b, c uint32) {
				got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
			})
			if err != nil {
				t.Fatal(err)
			}
			if ok, diag := oracle.SameSet(got); !ok {
				t.Errorf("%s/workers=%d: ablated algorithm wrong: %s", name, workers, diag)
			}
			if info.HighDegVertices != 0 {
				t.Errorf("%s/workers=%d: step 1 ran despite ablation", name, workers)
			}
		}
	}
}

// TestAblationHighDegreeReducesX: on a heavy-tailed graph, step 1 must
// reduce the realized partition potential X_ξ (that is Lemma 3's point:
// the bound needs deg <= sqrt(E·M)).
func TestAblationHighDegreeReducesX(t *testing.T) {
	// Extremely skewed: two hubs adjacent to thousands of vertices on top
	// of a random background, so deg(hub) >> sqrt(E·M).
	el := graph.GNM(3000, 4000, 3)
	for v := uint32(0); v < 2500; v++ {
		el.Add(2998, v)
		el.Add(2999, v)
	}
	run := func(disable bool) Info {
		sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
		g := graph.CanonicalizeList(sp, el)
		var n uint64
		info, _, err := CacheAwareParallel(sp, g, 5, Exec{Workers: 4, DisableHighDegree: disable}, graph.Counter(&n))
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	with := run(false)
	without := run(true)
	if with.HighDegVertices == 0 {
		t.Skip("workload has no high-degree vertices at this M; ablation not meaningful")
	}
	if without.X <= with.X {
		t.Errorf("X without step 1 (%d) should exceed X with step 1 (%d) on a skewed graph", without.X, with.X)
	}
	t.Logf("X with step1=%d, without=%d (%.1fx), high-degree vertices=%d",
		with.X, without.X, float64(without.X)/float64(with.X), with.HighDegVertices)
}

func starPlusClique() graph.EdgeList {
	// A hub connected to everything, over a K12 plus satellites.
	el := graph.Clique(12)
	hub := uint32(100)
	for v := uint32(0); v < 60; v++ {
		el.Add(hub, v)
	}
	return el
}
