package baseline

import (
	"context"
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/trienum"
)

func newSpace() *extmem.Space {
	return extmem.NewSpace(extmem.Config{M: 1 << 12, B: 1 << 6})
}

type runner struct {
	name string
	run  func(ctx context.Context, sp *extmem.Space, g graph.Canonical, emit graph.Emit) (trienum.Info, error)
}

var runners = []runner{
	{"blocknestedloop", BlockNestedLoop},
	{"edgeiterator", EdgeIterator},
	{"hutaochung", trienum.HuTaoChung},
	{"dementiev", trienum.Dementiev},
}

func TestBaselinesAgainstOracle(t *testing.T) {
	workloads := map[string]graph.EdgeList{
		"empty":     {},
		"triangle":  graph.Clique(3),
		"k15":       graph.Clique(15),
		"gnm":       graph.GNM(90, 600, 4),
		"powerlaw":  graph.PowerLaw(120, 500, 2.3, 5),
		"bipartite": graph.BipartiteRandom(25, 25, 200, 6),
		"grid":      graph.Grid(6, 7),
		"sells":     graph.Sells(12, 7, 7, 3, 0.5, 7),
		"planted":   graph.PlantedClique(70, 150, 9, 8),
	}
	for name, el := range workloads {
		oracle := graph.NewOracle(el)
		for _, r := range runners {
			sp := newSpace()
			g := graph.CanonicalizeList(sp, el)
			var got []graph.Triple
			info, err := r.run(nil, sp, g, func(a, b, c uint32) {
				got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, r.name, err)
			}
			if ok, diag := oracle.SameSet(got); !ok {
				t.Errorf("%s/%s: wrong set (want %d got %d): %s", name, r.name, oracle.Count(), len(got), diag)
			}
			if info.Triangles != oracle.Count() {
				t.Errorf("%s/%s: Info.Triangles=%d want %d", name, r.name, info.Triangles, oracle.Count())
			}
		}
	}
}

func TestBaselinesTinyMemory(t *testing.T) {
	el := graph.PlantedClique(100, 500, 11, 9)
	oracle := graph.NewOracle(el)
	for _, r := range runners {
		sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
		g := graph.CanonicalizeList(sp, el)
		var got []graph.Triple
		if _, err := r.run(nil, sp, g, func(a, b, c uint32) {
			got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
		}); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if ok, diag := oracle.SameSet(got); !ok {
			t.Errorf("%s under tiny memory: %s", r.name, diag)
		}
	}
}

func TestEmitOrdering(t *testing.T) {
	el := graph.Clique(12)
	for _, r := range runners {
		sp := newSpace()
		g := graph.CanonicalizeList(sp, el)
		bad := 0
		if _, err := r.run(nil, sp, g, func(a, b, c uint32) {
			if !(a < b && b < c) {
				bad++
			}
		}); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if bad > 0 {
			t.Errorf("%s: %d unsorted emissions", r.name, bad)
		}
	}
}

func TestHuTaoChungIOBeatsNestedLoopWhenMemorySmall(t *testing.T) {
	// With E >> M, the SIGMOD'13 algorithm must use far fewer I/Os than
	// block-nested-loop join: E²/(MB) vs E³/(M²B).
	el := graph.GNM(220, 4000, 10)
	measure := func(r runner) uint64 {
		sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
		g := graph.CanonicalizeList(sp, el)
		sp.DropCache()
		sp.ResetStats()
		if _, err := r.run(nil, sp, g, func(a, b, c uint32) {}); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		return sp.Stats().IOs()
	}
	bnl := measure(runners[0])
	htc := measure(runners[2])
	if htc >= bnl {
		t.Errorf("HuTaoChung %d I/Os >= BlockNestedLoop %d I/Os; expected clear win at E>>M", htc, bnl)
	}
	t.Logf("bnl=%d huTaoChung=%d ratio=%.1f", bnl, htc, float64(bnl)/float64(htc))
}
