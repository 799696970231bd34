package trienum

import (
	"testing"
	"testing/quick"

	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// Property: summing Lemma 1 over every vertex counts each triangle three
// times (once per corner).
func TestQuickLemma1SumsToThreeTimesTriangles(t *testing.T) {
	prop := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%25 + 4
		m := int(mRaw)%120 + 3
		el := graph.GNM(n, m, seed)
		sp := newSpace()
		g := graph.CanonicalizeList(sp, el)
		var total uint64
		for v := 0; v < g.NumVertices; v++ {
			enumerateContaining(sp, g.Edges, uint32(v), emsort.SortRecords, func(_, _ uint32) {
				total++
			})
		}
		return total == 3*graph.NewOracle(el).Count()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the kernel is additive over a partition of the pivot set —
// splitting pivots into arbitrary consecutive chunks and summing the
// per-chunk outputs reproduces the full output exactly.
func TestQuickKernelPivotAdditivity(t *testing.T) {
	prop := func(seed uint64, cut uint8) bool {
		el := graph.GNM(40, 250, seed)
		sp := newSpace()
		g := graph.CanonicalizeList(sp, el)
		e := g.Edges.Len()
		if e < 2 {
			return true
		}
		k := int64(cut)%(e-1) + 1
		var parts uint64
		_ = kernel(nil, sp, g.Edges, g.Edges.Slice(0, k), 0, func(_, _, _ uint32) { parts++ })
		_ = kernel(nil, sp, g.Edges, g.Edges.Slice(k, e), 0, func(_, _, _ uint32) { parts++ })
		var whole uint64
		_ = kernel(nil, sp, g.Edges, g.Edges, 0, func(_, _, _ uint32) { whole++ })
		return parts == whole && whole == graph.NewOracle(el).Count()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the triangle count is invariant under vertex relabeling.
func TestQuickRelabelingInvariance(t *testing.T) {
	prop := func(seed uint64, shift uint16) bool {
		el := graph.GNM(30, 140, seed)
		relabeled := graph.EdgeList{}
		for _, e := range el.Edges {
			relabeled.Add(graph.U(e)+uint32(shift), graph.V(e)+uint32(shift))
		}
		sp1, sp2 := newSpace(), newSpace()
		g1 := graph.CanonicalizeList(sp1, el)
		g2 := graph.CanonicalizeList(sp2, relabeled)
		var n1, n2 uint64
		_, _, err1 := CacheAwareParallel(sp1, g1, 1, Exec{Workers: 1}, graph.Counter(&n1))
		_, _, err2 := CacheAwareParallel(sp2, g2, 1, Exec{Workers: 4}, graph.Counter(&n2))
		return err1 == nil && err2 == nil && n1 == n2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: dropping the vertices of rank >= r0 (compactBelow, the
// engine's step-1 cleanup) removes exactly the triangles whose highest
// corner is such a vertex, as counted by Lemma 1 with the engine's w < r
// filter.
func TestQuickRemoveIncidentConsistency(t *testing.T) {
	prop := func(seed uint64, vRaw uint8) bool {
		el := graph.GNM(30, 150, seed)
		sp := newSpace()
		g := graph.CanonicalizeList(sp, el)
		if g.NumVertices == 0 {
			return true
		}
		r0 := uint32(int(vRaw) % g.NumVertices)
		var through uint64
		for r := r0; int(r) < g.NumVertices; r++ {
			enumerateContaining(sp, g.Edges, r, emsort.SortRecords, func(_, w uint32) {
				if w < r {
					through++
				}
			})
		}

		work := sp.Alloc(g.Edges.Len())
		g.Edges.CopyTo(work)
		kept := compactBelow(sp, work, r0)
		var after uint64
		if err := kernel(nil, sp, work.Prefix(kept), work.Prefix(kept), 0, func(_, _, _ uint32) { after++ }); err != nil {
			return false
		}
		var before uint64
		if err := kernel(nil, sp, g.Edges, g.Edges, 0, func(_, _, _ uint32) { before++ }); err != nil {
			return false
		}
		return before == after+through
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the oblivious algorithm emits the same multiset regardless of
// its base-case path — compare small graphs where maxDepth forces base
// cases against the flat kernel.
func TestQuickObliviousMatchesKernel(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%20 + 4
		el := graph.GNM(n, n*3, seed)
		sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
		g := graph.CanonicalizeList(sp, el)
		var b uint64
		if err := kernel(nil, sp, g.Edges, g.Edges, 0, func(_, _, _ uint32) { b++ }); err != nil {
			return false
		}
		for _, workers := range []int{1, 4} {
			var a uint64
			if _, _, err := ObliviousParallel(sp, g, seed^0xabc, Exec{Workers: workers}, graph.Counter(&a)); err != nil || a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
