package expt

import (
	"math"

	"repro/internal/graph"
	"repro/internal/trienum"
)

// E11RecursionConcentration: Lemmas 4 and 5. The cache-oblivious
// recursion's measured subproblem population per level against the
// predicted expectations: mean subproblem size E/4^i and total edge
// copies E·2^i (each edge survives into about two of the eight children).
func E11RecursionConcentration() Table {
	t := Table{
		ID:     "E11",
		Title:  "recursion concentration (Lemmas 4 and 5)",
		Claim:  "E[size of a level-i subproblem] = E/4^i; total level-i edges ~ E·2^i; sizes concentrate (Chebyshev)",
		Header: []string{"level", "subproblems", "total edges", "total/(E·2^i)", "mean size", "mean/(E/4^i)", "max size"},
	}
	m := Machine{M: 1 << 11, B: 1 << 5}
	el := graph.GNM(4096, 16384, 41)
	ms := Measure(el, m, Runner("oblivious"), 11)
	e := float64(ms.Edges)
	for _, lv := range ms.Info.Recursion {
		if lv.Subproblems == 0 {
			continue
		}
		pred2 := e * math.Pow(2, float64(lv.Level))
		pred4 := e / math.Pow(4, float64(lv.Level))
		mean := float64(lv.TotalEdges) / float64(lv.Subproblems)
		t.Rows = append(t.Rows, []string{
			di(lv.Level), di(lv.Subproblems), d64(lv.TotalEdges),
			f3(float64(lv.TotalEdges) / pred2),
			f1(mean), f2(mean / pred4), d64(lv.MaxEdges),
		})
	}
	t.Notes = append(t.Notes,
		"total/(E·2^i) converges to a constant: an edge is compatible with ~2 of 8 children once colors separate (up to 6 near the root, where the color triple is degenerate)",
		"mean/(E/4^i) flat while subproblems remain above the base-case cutoff confirms Lemma 4's per-subproblem expectation; the bounded max/mean gap reflects Lemma 5's concentration")
	return t
}

// E12ListingVsEnumeration: the enumeration/listing distinction of
// Section 1. Materializing the output adds Θ(t/B) I/Os, which dominates
// on triangle-dense inputs (t = Θ(E^1.5)) and is negligible on sparse
// ones — precisely why the paper separates the two problems.
func E12ListingVsEnumeration() Table {
	m := Machine{M: 1 << 11, B: 1 << 5}
	t := Table{
		ID:     "E12",
		Title:  "enumeration vs listing (Section 1)",
		Claim:  "listing costs an extra Theta(t/B) I/Os over enumeration; enumeration avoids materializing the output",
		Header: []string{"graph", "E", "t", "2t/B", "enumIOs", "listIOs", "extra/(2t/B)"},
	}
	workloads := []struct {
		name string
		el   graph.EdgeList
	}{
		{"clique", cliqueWithEdges(8192)},
		{"planted", graph.PlantedClique(2000, 7000, 40, 121)},
		{"gnm", graph.GNM(2048, 8192, 122)},
	}
	for _, w := range workloads {
		sp := m.space()
		g := graph.CanonicalizeList(sp, w.el)

		sp.DropCache()
		sp.ResetStats()
		var n uint64
		_, workerStats, err := trienum.CacheAwareParallel(sp, g, 12, engine, graph.Counter(&n))
		if err != nil {
			panic(err)
		}
		sp.Flush()
		enumIOs := sp.Stats().IOs()
		for _, ws := range workerStats {
			enumIOs += ws.IOs()
		}

		// ListTriangles runs the enumeration twice (count + fill), so the
		// materialization overhead is listIOs − 2·enumIOs, predicted to be
		// the sequential output traffic ~ 2·t·stride/B (write + flush).
		sp.DropCache()
		sp.ResetStats()
		list, _, err := trienum.ListTriangles(sp, g, 12, engine)
		if err != nil {
			panic(err)
		}
		sp.Flush()
		listIOs := sp.Stats().IOs()

		outWords := float64(list.Len())
		pred := 2 * outWords / float64(m.B)
		extra := float64(listIOs) - 2*float64(enumIOs)
		t.Rows = append(t.Rows, []string{w.name, d64(g.Edges.Len()), d(n),
			e0(pred), d(enumIOs), d(listIOs), f2(extra / pred)})
	}
	t.Notes = append(t.Notes,
		"on the clique t/B dominates the enumeration cost itself; on sparse gnm it is negligible — the reason Section 1 separates the problems")
	return t
}
