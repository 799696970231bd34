package subgraph

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
	"repro/internal/trienum"
)

// engineCases are TestKCliqueMatchesReference's graphs and machines, for
// the clique sizes, plus a skewed and a uniform graph a fifth their size
// for the patterns, whose map solver would take minutes on the larger
// ones.
var engineCases = []struct {
	name     string
	el       graph.EdgeList
	cfg      extmem.Config
	ks       []int
	patterns []*Pattern
}{
	{"powerlaw", graph.PowerLaw(1000, 6000, 2.1, 31), extmem.Config{M: 1 << 10, B: 1 << 5}, []int{3, 4, 5}, nil},
	{"gnm", graph.GNM(300, 6000, 32), extmem.Config{M: 1 << 10, B: 1 << 5}, []int{3, 4, 5}, nil},
	{"two-pass", graph.GNM(250, 5000, 33), extmem.Config{M: 1 << 8, B: 1 << 4}, []int{3, 4}, nil},
	{"powerlaw-small", graph.PowerLaw(300, 1100, 2.1, 34), extmem.Config{M: 1 << 8, B: 1 << 4}, nil, []*Pattern{Diamond, Cycle4}},
	{"gnm-small", graph.GNM(120, 1100, 35), extmem.Config{M: 1 << 8, B: 1 << 4}, nil, []*Pattern{Diamond, Cycle4}},
}

// engineFamily is one query of the tuple engine: a clique size or a
// pattern, with its reference run (every tuple solved in order on the
// caller's Space) and its engine run.
type engineFamily struct {
	name string
	ref  func(sp *extmem.Space, g graph.Canonical, emit EmitK) Info
	run  func(sp *extmem.Space, g graph.Canonical, x trienum.Exec, emit EmitK) (Info, []extmem.Stats, error)
}

func engineFamilies(ks []int, patterns []*Pattern) []engineFamily {
	const seed = 17
	var fams []engineFamily
	for _, k := range ks {
		fams = append(fams, engineFamily{
			name: fmt.Sprintf("k=%d", k),
			ref: func(sp *extmem.Space, g graph.Canonical, emit EmitK) Info {
				return referenceKClique(sp, g, k, seed, emit)
			},
			run: func(sp *extmem.Space, g graph.Canonical, x trienum.Exec, emit EmitK) (Info, []extmem.Stats, error) {
				return KCliqueParallel(sp, g, k, seed, x, emit)
			},
		})
	}
	for _, p := range patterns {
		fams = append(fams, engineFamily{
			name: p.Name(),
			ref: func(sp *extmem.Space, g graph.Canonical, emit EmitK) Info {
				return referenceEnumerate(sp, g, p, seed, emit)
			},
			run: func(sp *extmem.Space, g graph.Canonical, x trienum.Exec, emit EmitK) (Info, []extmem.Stats, error) {
				return p.EnumerateParallel(sp, g, seed, x, emit)
			},
		})
	}
	return fams
}

// referenceEnumerate is Pattern.EnumerateParallel's decomposition as a
// plain loop: every color tuple, in lexicographic order, solved by
// SolveTuple on the caller's Space.
func referenceEnumerate(sp *extmem.Space, g graph.Canonical, p *Pattern, seed uint64, emit EmitK) Info {
	c := tupleColors(g.Edges.Len(), sp.Config().M, p.K(), 1<<20)
	info := Info{Colors: c}
	col := hashing.NewColoring(hashing.NewRand(seed), c)
	edges, off := graph.ColorBuckets(sp, g.Edges, col.Color, c)
	tuple := make([]int, p.K())
	var iterate func(pos int)
	iterate = func(pos int) {
		if pos == len(tuple) {
			if err := p.SolveTuple(sp, edges, off, c, col.Color, tuple, &info, emit); err != nil {
				panic(err)
			}
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

// collect appends a copy of every emission to *out.
func collect(out *[][]uint32) EmitK {
	return func(vs []uint32) { *out = append(*out, slices.Clone(vs)) }
}

// runTotal is the whole run's simulated I/O: the coordinator's, flushed,
// plus the workers'.
func runTotal(sp *extmem.Space, ws []extmem.Stats) extmem.Stats {
	sp.Flush()
	st := sp.Stats()
	for _, w := range ws {
		st.Add(w)
	}
	return st
}

// TestTupleEngineDeterministic: at every worker count and on both
// machines, the tuple engine emits the reference stream in order with the
// reference Info, and a simulated run's summed statistics are the same
// at every worker count — and are what the one-worker KClique wrapper
// absorbs into its Space.
func TestTupleEngineDeterministic(t *testing.T) {
	for _, tc := range engineCases {
		for _, f := range engineFamilies(tc.ks, tc.patterns) {
			var want [][]uint32
			sp := extmem.NewSpace(tc.cfg)
			ref := f.ref(sp, graph.CanonicalizeList(sp, tc.el), collect(&want))
			if ref.Colors < 2 || len(want) == 0 {
				t.Fatalf("%s/%s: %d colors, %d matches; the case must exercise the color tuples", tc.name, f.name, ref.Colors, len(want))
			}
			for _, native := range []bool{false, true} {
				var total *extmem.Stats
				for _, workers := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/%s/native=%v/workers=%d", tc.name, f.name, native, workers)
					cfg := tc.cfg
					cfg.Native = native
					sp := extmem.NewSpace(cfg)
					g := graph.CanonicalizeList(sp, tc.el)
					sp.ResetStats()
					var got [][]uint32
					info, ws, err := f.run(sp, g, trienum.Exec{Workers: workers}, collect(&got))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !slices.EqualFunc(got, want, slices.Equal[[]uint32]) {
						t.Errorf("%s: stream of %d matches differs from the reference's %d", name, len(got), len(want))
					}
					if info != ref {
						t.Errorf("%s: info %+v, reference %+v", name, info, ref)
					}
					if len(ws) > workers {
						t.Errorf("%s: %d worker stats exceed the cap", name, len(ws))
					}
					if native {
						continue
					}
					st := runTotal(sp, ws)
					if total == nil {
						total = &st
					} else if st != *total {
						t.Errorf("%s: summed stats %+v, one worker %+v", name, st, *total)
					}
				}
				if native || f.name[0] != 'k' {
					continue
				}
				// The wrapper runs one worker and absorbs its stats.
				sp := extmem.NewSpace(tc.cfg)
				g := graph.CanonicalizeList(sp, tc.el)
				sp.ResetStats()
				var k int
				fmt.Sscanf(f.name, "k=%d", &k)
				if _, err := KClique(nil, sp, g, k, 17, func([]uint32) {}); err != nil {
					t.Fatal(err)
				}
				if st := runTotal(sp, nil); st != *total {
					t.Errorf("%s/%s: KClique's Space reports %+v, the engine's run %+v", tc.name, f.name, st, *total)
				}
			}
		}
	}
}

// waitGoroutines polls until the goroutine count returns to (near) the
// baseline, failing the test if workers leaked.
func waitGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("%s leaked goroutines: %d before, %d after", what, before, runtime.NumGoroutine())
}

// TestTupleEngineCancellation: cancelling after n emissions stops the
// engine with the context's error, having emitted a prefix of the
// reference stream (the emissions racing the cancellation included), and
// leaves no worker behind.
func TestTupleEngineCancellation(t *testing.T) {
	const n = 100
	for _, f := range append(engineFamilies([]int{4}, nil), engineFamilies(nil, []*Pattern{Diamond})...) {
		tc := engineCases[1]
		if f.name != "k=4" {
			tc = engineCases[4]
		}
		var full [][]uint32
		sp := extmem.NewSpace(tc.cfg)
		f.ref(sp, graph.CanonicalizeList(sp, tc.el), collect(&full))
		if len(full) < 4*n {
			t.Fatalf("%s: %d matches; the stream must outlast the cancellation", f.name, len(full))
		}
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/workers=%d", f.name, workers)
			sp := extmem.NewSpace(tc.cfg)
			g := graph.CanonicalizeList(sp, tc.el)
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			var got [][]uint32
			_, _, err := f.run(sp, g, trienum.Exec{Workers: workers, Ctx: ctx}, func(vs []uint32) {
				got = append(got, slices.Clone(vs))
				if len(got) == n {
					cancel()
				}
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err %v, want %v", name, err, context.Canceled)
			}
			if len(got) < n || len(got) >= len(full) {
				t.Errorf("%s: %d emissions, want at least %d and fewer than the full %d", name, len(got), n, len(full))
			}
			if !slices.EqualFunc(got, full[:min(len(got), len(full))], slices.Equal[[]uint32]) {
				t.Errorf("%s: the %d emissions are not a prefix of the full stream", name, len(got))
			}
			waitGoroutines(t, before, name)
		}
	}
}

// TestTupleEngineHoldsNoStatePerTuple: a plan of c^k = 2^20 color tuples,
// the size of the largest pattern plan, keeps no state per tuple in the
// engine or the pool. Half way through, the live heap is within a few
// MiB of where it started, where one task or stream per tuple, made up
// front, would hold over 100 MiB; every tuple is still solved once.
func TestTupleEngineHoldsNoStatePerTuple(t *testing.T) {
	const k, c = 4, 32
	sp := extmem.NewSpace(extmem.Config{M: 1 << 12, B: 1 << 6, Native: true})
	g := graph.CanonicalizeList(sp, graph.GNM(100, 400, 1))
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	var solved atomic.Int64
	var mid atomic.Uint64
	solve := func(_ *extmem.Space, _ extmem.Extent, _ []int64, tuple []int, _ *Info, _ EmitK) error {
		solved.Add(1)
		if slices.Equal(tuple, []int{c / 2, 0, 0, 0}) {
			mid.Store(heap())
		}
		return nil
	}
	colorOf := func(v uint32) uint32 { return v % c }
	if _, _, err := solveTuples(sp, g, k, c, colorOf, trienum.Exec{Workers: 2}, solve, func([]uint32) {}); err != nil {
		t.Fatal(err)
	}
	if got := solved.Load(); got != 1<<20 {
		t.Fatalf("solved %d tuples, want 2^20", got)
	}
	if m := mid.Load(); m == 0 || m > before+16<<20 {
		t.Errorf("live heap grew from %d to %d bytes half way through the plan", before, m)
	}
}
