package trienum

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
)

// referenceColored is steps 2 and 3 as first written, kept as the oracle
// of solveColoredParallel: a comparator sort of the edges by color pair,
// a count scan for the bucket offsets, and per color triple the kernel
// over the three-bucket union E_{τ1,τ2} ∪ E_{τ1,τ3} ∪ E_{τ2,τ3}, with the
// emissions filtered to cone vertices of color τ1. It runs sequentially
// and leases the c²+1-word bucket index around each kernel, as the
// engine's shards do, so the kernel's chunks match.
func referenceColored(sp *extmem.Space, edges extmem.Extent, colorOf func(uint32) uint32, c int, info *Info, emit graph.Emit) {
	E := edges.Len()
	if E == 0 {
		return
	}
	mark := sp.Mark()
	defer sp.Release(mark)
	sorted := sp.Alloc(E)
	edges.CopyTo(sorted)
	key := func(e extmem.Word) uint64 {
		return uint64(colorOf(graph.U(e)))*uint64(c) + uint64(colorOf(graph.V(e)))
	}
	emsort.SortRecords(sorted, 1, key)
	off := make([]int64, c*c+1)
	for i := int64(0); i < E; i++ {
		off[key(sorted.Read(i))+1]++
	}
	for b := 1; b <= c*c; b++ {
		n := uint64(off[b])
		info.X += n * (n - 1) / 2
		off[b] += off[b-1]
	}
	bucket := func(a, b int) extmem.Extent { return sorted.Slice(off[a*c+b], off[a*c+b+1]) }
	for t1 := 0; t1 < c; t1++ {
		for t2 := 0; t2 < c; t2++ {
			for t3 := 0; t3 < c; t3++ {
				b12, b13, b23 := bucket(t1, t2), bucket(t1, t3), bucket(t2, t3)
				if b12.Len() == 0 || b13.Len() == 0 || b23.Len() == 0 {
					continue
				}
				info.Subproblems++
				var union []extmem.Word
				var bases []int64
				for _, b := range []extmem.Extent{b12, b13, b23} {
					if slices.Contains(bases, b.Base()) {
						continue
					}
					bases = append(bases, b.Base())
					words := make([]extmem.Word, b.Len())
					b.Load(words)
					union = append(union, words...)
				}
				slices.Sort(union)
				scratch := sp.Alloc(int64(len(union)))
				scratch.Store(union)
				lease := sp.LeaseAtMost(c*c + 1)
				tau1 := uint32(t1)
				_ = kernel(nil, sp, scratch, b23, 0, func(v, u, w uint32) {
					if colorOf(v) == tau1 {
						emit(v, u, w)
					}
				})
				lease.Release()
			}
		}
	}
}

// referenceEngines run CacheAwareParallel's and DeterministicParallel's
// own steps 1 and coloring at Workers=1, then referenceColored.
var referenceEngines = []struct {
	name   string
	ref    func(sp *extmem.Space, g graph.Canonical, info *Info, emit graph.Emit)
	engine func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, error)
}{
	{"cacheaware", func(sp *extmem.Space, g graph.Canonical, info *Info, emit graph.Emit) {
		edges := referenceLowDegree(sp, g, info, emit)
		c := ceilSqrt(float64(g.Edges.Len()) / float64(sp.Config().M))
		info.Colors = c
		col := hashing.NewColoring(hashing.NewRand(identitySeed), c)
		referenceColored(sp, edges, col.Color, c, info, emit)
	}, func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, error) {
		info, _, err := CacheAwareParallel(sp, g, identitySeed, exec, emit)
		return info, err
	}},
	{"deterministic", func(sp *extmem.Space, g graph.Canonical, info *Info, emit graph.Emit) {
		edges := referenceLowDegree(sp, g, info, emit)
		colorOf, c, err := buildDeterministicColoring(nil, sp, g, edges, emsort.SortRecords, info)
		if err != nil {
			panic(err)
		}
		referenceColored(sp, edges, colorOf, c, info, emit)
	}, func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, error) {
		info, _, err := DeterministicParallel(sp, g, exec, emit)
		return info, err
	}},
}

const identitySeed = 0x5eed

// referenceLowDegree runs step 1 sequentially and returns the surviving
// low-degree edges in canonical order, in scratch the caller's Space
// keeps.
func referenceLowDegree(sp *extmem.Space, g graph.Canonical, info *Info, emit graph.Emit) extmem.Extent {
	work := sp.Alloc(g.Edges.Len())
	g.Edges.CopyTo(work)
	n, _, err := highDegreeParallel(Exec{Workers: 1}, sp, work, g, emit, info)
	if err != nil {
		panic(err)
	}
	return work.Prefix(n)
}

// TestColoredStreamMatchesReference pins the two-bucket decomposition
// against the three-bucket reference: the triangle stream, order
// included, Info.X and Info.Subproblems, for both color-coded engines at
// Workers 1 and 4, simulated and native, on a skewed and a uniform graph,
// on a machine whose color-pair distribution needs two passes, and on a
// graph small enough (E <= M) for one color, whose one triple is the
// whole edge set.
func TestColoredStreamMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		el     graph.EdgeList
		cfg    extmem.Config
		colors [2]int // Info.Colors per engine of referenceEngines
	}{
		{"powerlaw", graph.PowerLaw(1000, 6000, 2.1, 21), extmem.Config{M: 1 << 10, B: 1 << 5}, [2]int{3, 4}},
		{"gnm", graph.GNM(800, 5000, 22), extmem.Config{M: 1 << 10, B: 1 << 5}, [2]int{3, 4}},
		{"two-pass", graph.GNM(800, 5000, 23), extmem.Config{M: 1 << 8, B: 1 << 4}, [2]int{5, 8}},
		{"one-color", graph.GNM(300, 900, 24), extmem.Config{M: 1 << 10, B: 1 << 5}, [2]int{1, 1}},
	}
	for _, tc := range cases {
		for i, eng := range referenceEngines {
			sp := extmem.NewSpace(tc.cfg)
			g := graph.CanonicalizeList(sp, tc.el)
			var want []graph.Triple
			var ref Info
			eng.ref(sp, g, &ref, func(a, b, c uint32) { want = append(want, graph.Triple{V1: a, V2: b, V3: c}) })
			if ref.Colors != tc.colors[i] {
				t.Fatalf("%s/%s: %d colors, the case is for %d", tc.name, eng.name, ref.Colors, tc.colors[i])
			}
			// On M=2^8, B=2^4 more than 16 buckets take at least two
			// distribution passes (pinned in emsort's Distribute tests).
			if tc.name == "two-pass" && ref.Colors*ref.Colors <= 16 {
				t.Fatalf("%s/%s: %d colors distribute in one pass", tc.name, eng.name, ref.Colors)
			}
			for _, native := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%s/%s/native=%v/workers=%d", tc.name, eng.name, native, workers)
					cfg := tc.cfg
					cfg.Native = native
					sp := extmem.NewSpace(cfg)
					g := graph.CanonicalizeList(sp, tc.el)
					var got []graph.Triple
					info, err := eng.engine(sp, g, Exec{Workers: workers}, func(a, b, c uint32) {
						got = append(got, graph.Triple{V1: a, V2: b, V3: c})
					})
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s: stream of %d triangles differs from the reference's %d", name, len(got), len(want))
					}
					if info.X != ref.X || info.Subproblems != ref.Subproblems || info.Colors != ref.Colors {
						t.Errorf("%s: X=%d subproblems=%d colors=%d, reference X=%d subproblems=%d colors=%d",
							name, info.X, info.Subproblems, info.Colors, ref.X, ref.Subproblems, ref.Colors)
					}
				}
			}
		}
	}
}
