package trienum

import (
	"strings"
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
)

func listWith(t *testing.T, el graph.EdgeList, workers int) (*extmem.Space, graph.Canonical, extmem.Extent) {
	t.Helper()
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	list, _, err := ListTriangles(sp, g, 3, Exec{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return sp, g, list
}

func TestListTrianglesMatchesOracle(t *testing.T) {
	el := graph.PlantedClique(80, 300, 10, 4)
	oracle := graph.NewOracle(el)
	for _, workers := range []int{1, 4} {
		sp, g, list := listWith(t, el, workers)
		if uint64(ListLen(list)) != oracle.Count() {
			t.Fatalf("workers=%d: listed %d, oracle %d", workers, ListLen(list), oracle.Count())
		}
		var got []graph.Triple
		for i := int64(0); i < ListLen(list); i++ {
			a, b, c := ReadTriple(list, i)
			got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
		}
		if ok, diag := oracle.SameSet(got); !ok {
			t.Errorf("workers=%d: listed set wrong: %s", workers, diag)
		}
		if err := VerifyEnumeration(sp, g, list); err != nil {
			t.Errorf("workers=%d: verification failed on a correct list: %v", workers, err)
		}
	}
}

// TestListTrianglesObliviousLister cross-checks the materialized list
// against a second algorithm: every record of the cache-aware listing is
// a triangle the oblivious engine emits, and the two agree on the count.
func TestListTrianglesObliviousLister(t *testing.T) {
	el := graph.GNM(60, 350, 8)
	sp, g, list := listWith(t, el, 4)
	listed := map[graph.Triple]bool{}
	for i := int64(0); i < ListLen(list); i++ {
		a, b, c := ReadTriple(list, i)
		listed[graph.Triple{V1: a, V2: b, V3: c}] = true
	}
	var n int
	if _, _, err := ObliviousParallel(sp, g, 3, Exec{Workers: 4}, func(a, b, c uint32) {
		n++
		if !listed[graph.Triple{V1: a, V2: b, V3: c}] {
			t.Errorf("oblivious triangle {%d,%d,%d} missing from the listing", a, b, c)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if int64(n) != ListLen(list) || uint64(n) != graph.NewOracle(el).Count() {
		t.Fatalf("oblivious emitted %d, listing holds %d", n, ListLen(list))
	}
	if err := VerifyEnumeration(sp, g, list); err != nil {
		t.Error(err)
	}
}

func TestVerifyEnumerationCatchesDuplicates(t *testing.T) {
	el := graph.Clique(6)
	sp, g, list := listWith(t, el, 1)
	// Duplicate the first record into a fresh extent.
	bad := sp.Alloc(list.Len() + TripleWords)
	list.CopyTo(bad)
	bad.Write(list.Len(), list.Read(0))
	bad.Write(list.Len()+1, list.Read(1))
	err := VerifyEnumeration(sp, g, bad)
	if err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Errorf("duplicate not caught: %v", err)
	}
}

func TestVerifyEnumerationCatchesPhantomEdge(t *testing.T) {
	// A triangle over vertices that are not mutually adjacent.
	el := graph.Grid(4, 4) // triangle-free
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	fake := sp.Alloc(TripleWords)
	w0, w1 := packTriple(0, 1, 2)
	fake.Write(0, w0)
	fake.Write(1, w1)
	err := VerifyEnumeration(sp, g, fake)
	if err == nil || !strings.Contains(err.Error(), "nonexistent edge") {
		t.Errorf("phantom triangle not caught: %v", err)
	}
}

func TestVerifyEnumerationCatchesUnsorted(t *testing.T) {
	el := graph.Clique(4)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	bad := sp.Alloc(TripleWords)
	w0, w1 := packTriple(2, 1, 3) // not increasing
	bad.Write(0, w0)
	bad.Write(1, w1)
	err := VerifyEnumeration(sp, g, bad)
	if err == nil || !strings.Contains(err.Error(), "strictly increasing") {
		t.Errorf("unsorted record not caught: %v", err)
	}
}

func TestVerifyEnumerationEdgeCases(t *testing.T) {
	el := graph.Clique(5)
	sp := newSpace()
	g := graph.CanonicalizeList(sp, el)
	if err := VerifyEnumeration(sp, g, sp.Alloc(0)); err != nil {
		t.Errorf("empty list should verify: %v", err)
	}
	if err := VerifyEnumeration(sp, g, sp.Alloc(3)); err == nil {
		t.Error("odd-length list should be rejected")
	}
}

func TestListingCostsOutputTraffic(t *testing.T) {
	// On a clique the materialization cost must be visible: listing I/Os
	// must exceed twice the enumeration I/Os (two passes) by roughly the
	// output traffic.
	el := graph.Clique(64)
	m := extmem.Config{M: 1 << 11, B: 1 << 5}

	sp := extmem.NewSpace(m)
	g := graph.CanonicalizeList(sp, el)
	sp.DropCache()
	sp.ResetStats()
	var n uint64
	_, ws, err := CacheAwareParallel(sp, g, 3, Exec{Workers: 4}, graph.Counter(&n))
	if err != nil {
		t.Fatal(err)
	}
	sp.Flush()
	enumIOs := sp.Stats().IOs()
	for _, w := range ws {
		enumIOs += w.IOs()
	}

	sp2 := extmem.NewSpace(m)
	g2 := graph.CanonicalizeList(sp2, el)
	sp2.DropCache()
	sp2.ResetStats()
	list, _, err := ListTriangles(sp2, g2, 3, Exec{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sp2.Flush()
	listIOs := sp2.Stats().IOs()

	outBlocks := uint64(list.Len()) / uint64(m.B)
	if listIOs < 2*enumIOs+outBlocks/2 {
		t.Errorf("listing %d I/Os does not reflect output traffic (enum %d, output %d blocks)",
			listIOs, enumIOs, outBlocks)
	}
}

func TestRecursionInstrumentation(t *testing.T) {
	el := graph.GNM(300, 2400, 5)
	sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
	g := graph.CanonicalizeList(sp, el)
	var n uint64
	info, _, err := ObliviousParallel(sp, g, 1, Exec{Workers: 4}, graph.Counter(&n))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Recursion) == 0 {
		t.Fatal("no recursion levels recorded")
	}
	if info.Recursion[0].Subproblems != 1 || info.Recursion[0].TotalEdges != g.Edges.Len() {
		t.Errorf("level 0 = %+v, want 1 subproblem of %d edges", info.Recursion[0], g.Edges.Len())
	}
	for i, lv := range info.Recursion {
		if lv.MaxEdges > lv.TotalEdges || (lv.Subproblems > 0 && lv.TotalEdges == 0 && i > 0) {
			t.Errorf("level %d inconsistent: %+v", i, lv)
		}
	}
	// Subproblem count grows at most 8x per level.
	for i := 1; i < len(info.Recursion); i++ {
		if info.Recursion[i].Subproblems > 8*info.Recursion[i-1].Subproblems {
			t.Errorf("level %d has %d subproblems, parent level only %d",
				i, info.Recursion[i].Subproblems, info.Recursion[i-1].Subproblems)
		}
	}
}
