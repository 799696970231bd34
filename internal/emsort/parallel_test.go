package emsort

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/extmem"
)

// The parallel-sort engine contract, mirroring the trienum engine's
// invariance suite: for Workers ∈ {1, 2, 8} the output bytes are
// identical to the sequential sort's and the aggregated I/O stats
// (coordinator plus summed worker shards) are identical at every worker
// count, on random, presorted, reversed, all-equal, and duplicate-key
// inputs.

// sortInput fills ext (and a reference native slice) with the named
// workload. key returns the (possibly non-injective) sort key to use.
func sortInput(ext extmem.Extent, shape string, seed int64) Key {
	n := ext.Len()
	rng := rand.New(rand.NewSource(seed))
	key := Identity
	for i := int64(0); i < n; i++ {
		var w uint64
		switch shape {
		case "random":
			w = rng.Uint64()
		case "presorted":
			w = uint64(i)
		case "reversed":
			w = uint64(n - i)
		case "allequal":
			w = 42
		case "fewkeys":
			// Non-injective key with heavy cross-run ties: the word-level
			// tie-break contract must hold in the merged output.
			w = rng.Uint64()
			key = func(w extmem.Word) uint64 { return w >> 58 }
		default:
			panic("unknown shape " + shape)
		}
		ext.Write(i, w)
	}
	return key
}

var sortShapes = []string{"random", "presorted", "reversed", "allequal", "fewkeys"}

type parallelSorter struct {
	name string
	seq  func(extmem.Extent, int, Key)
	par  func(extmem.Extent, int, Key, int) []extmem.Stats
}

var parallelSorters = []parallelSorter{
	{"multiway", SortRecords, ParallelSortRecords},
}

// parallelSortRun executes one measured parallel sort on a fresh space
// and returns the extent contents and the aggregated stats.
func parallelSortRun(cfg extmem.Config, n int64, shape string, s parallelSorter, workers int) ([]extmem.Word, extmem.Stats) {
	sp := extmem.NewSpace(cfg)
	ext := sp.Alloc(n)
	key := sortInput(ext, shape, n+7)
	sp.DropCache()
	sp.ResetStats()
	ws := s.par(ext, 1, key, workers)
	sp.Flush()
	total := sp.Stats()
	for _, w := range ws {
		total.Add(w)
	}
	out := make([]extmem.Word, n)
	ext.Load(out)
	return out, total
}

func TestParallelSortMatchesSequentialBytes(t *testing.T) {
	cfg := extmem.Config{M: 1 << 12, B: 1 << 6}
	n := int64(20000)
	for _, s := range parallelSorters {
		for _, shape := range sortShapes {
			t.Run(s.name+"/"+shape, func(t *testing.T) {
				ref := extmem.NewSpace(cfg)
				refExt := ref.Alloc(n)
				key := sortInput(refExt, shape, n+7)
				s.seq(refExt, 1, key)
				want := make([]extmem.Word, n)
				refExt.Load(want)
				for _, workers := range []int{1, 2, 8} {
					got, _ := parallelSortRun(cfg, n, shape, s, workers)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("workers=%d: word %d = %#x, sequential has %#x", workers, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

func TestParallelSortStatsInvariantAcrossWorkerCounts(t *testing.T) {
	cfg := extmem.Config{M: 1 << 12, B: 1 << 6}
	n := int64(20000)
	for _, s := range parallelSorters {
		for _, shape := range sortShapes {
			t.Run(s.name+"/"+shape, func(t *testing.T) {
				_, base := parallelSortRun(cfg, n, shape, s, 1)
				if base.IOs() == 0 {
					t.Fatal("no I/Os measured on an out-of-core sort")
				}
				for _, workers := range []int{2, 8} {
					_, got := parallelSortRun(cfg, n, shape, s, workers)
					if got != base {
						t.Errorf("workers=%d: aggregated stats %+v differ from workers=1 %+v", workers, got, base)
					}
				}
			})
		}
	}
}

// TestParallelSortRecordsStride: byte-identity must survive stride-2
// records with heavily duplicated first words, where only the stable
// (key, word, run) merge order reproduces the sequential payload order.
func TestParallelSortRecordsStride(t *testing.T) {
	cfg := extmem.Config{M: 1 << 12, B: 1 << 6}
	nRec := int64(9000)
	build := func(sp *extmem.Space) extmem.Extent {
		ext := sp.Alloc(2 * nRec)
		rng := rand.New(rand.NewSource(31))
		for i := int64(0); i < nRec; i++ {
			ext.Write(2*i, uint64(rng.Intn(40))) // ~225 records per key word
			ext.Write(2*i+1, uint64(i))          // distinct payload
		}
		return ext
	}
	ref := extmem.NewSpace(cfg)
	refExt := build(ref)
	SortRecords(refExt, 2, Identity)
	want := make([]extmem.Word, 2*nRec)
	refExt.Load(want)
	for _, workers := range []int{1, 2, 8} {
		sp := extmem.NewSpace(cfg)
		ext := build(sp)
		ParallelSortRecords(ext, 2, Identity, workers)
		got := make([]extmem.Word, 2*nRec)
		ext.Load(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: word %d = %d, sequential has %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestParallelSortFallbacks drives the sequential-fallback predicates —
// single-run inputs, unaligned extents, and geometries whose sample index
// would overrun the internal-memory budget — which must stay correct (and
// identical) at every worker count.
func TestParallelSortFallbacks(t *testing.T) {
	cases := []struct {
		name string
		cfg  extmem.Config
		n    int64
		off  int64 // slice offset to force misalignment
	}{
		{"singlerun", extmem.Config{M: 1 << 12, B: 1 << 6}, 1000, 0},
		{"unaligned", extmem.Config{M: 1 << 12, B: 1 << 6}, 20000, 1},
		{"multipass", extmem.Config{M: 1 << 8, B: 1 << 4}, 4000, 0},
		{"tiny", extmem.Config{M: 1 << 12, B: 1 << 6}, 1, 0},
	}
	for _, s := range parallelSorters {
		for _, tc := range cases {
			t.Run(s.name+"/"+tc.name, func(t *testing.T) {
				for _, workers := range []int{1, 4} {
					sp := extmem.NewSpace(tc.cfg)
					ext := sp.Alloc(tc.n+tc.off).Slice(tc.off, tc.n+tc.off)
					key := sortInput(ext, "random", tc.n)
					s.par(ext, 1, key, workers)
					if !IsSorted(ext, 1, key) {
						t.Fatalf("workers=%d: not sorted", workers)
					}
				}
			})
		}
	}
}

// TestSortersWordTieOrder pins the tie-break contract every sorter in the
// package shares: equal keys are ordered by the full first word. (The
// color-pair bucketing in trienum depends on it to get buckets in
// canonical edge order regardless of the input's prior order.)
func TestSortersWordTieOrder(t *testing.T) {
	fns := []struct {
		name string
		fn   func(extmem.Extent, int, Key)
	}{
		{"multiway", SortRecords},
		{"oblivious", ObliviousSortRecords},
		{"funnel", FunnelSortRecords},
		{"parallel-multiway", func(ext extmem.Extent, stride int, key Key) { ParallelSortRecords(ext, stride, key, 4) }},
	}
	for _, s := range fns {
		t.Run(s.name, func(t *testing.T) {
			sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
			n := int64(1200)
			ext := sp.Alloc(n)
			rng := rand.New(rand.NewSource(1))
			for i := int64(0); i < n; i++ {
				ext.Write(i, rng.Uint64())
			}
			key := func(w extmem.Word) uint64 { return w >> 60 } // 16 buckets, heavy ties
			s.fn(ext, 1, key)
			for i := int64(1); i < n; i++ {
				a, b := ext.Read(i-1), ext.Read(i)
				if key(a) == key(b) && a > b {
					t.Fatalf("word-tie order violated at %d: %#x > %#x (key %d)", i, a, b, key(a))
				}
				if key(a) > key(b) {
					t.Fatalf("not key-sorted at %d", i)
				}
			}
		})
	}
}

// TestParallelSortMultipass pins the multi-pass merge regime: a geometry
// whose formation runs exceed the merge fan-in, so ParallelSortRecords
// must run the sequential intermediate passes on the coordinator and fan
// out only the top-level pass. The output bytes must equal SortRecords'
// exactly and the aggregated stats must be invariant across worker
// counts. With M=512, B=64: fan-in 6, run words 384, so n=8192 forms 22
// runs — one intermediate pass collapsing them to 4 top-level runs.
func TestParallelSortMultipass(t *testing.T) {
	cfg := extmem.Config{M: 512, B: 64, AllowShortCache: true}
	n := int64(8192)
	plan := planSort(cfg, cfg.M, 1)
	if numRuns := int((n + plan.runWords - 1) / plan.runWords); numRuns <= plan.fanIn {
		t.Fatalf("geometry does not force multi-pass: %d runs <= fan-in %d", numRuns, plan.fanIn)
	}
	{
		// The parallel engine must actually take the fanned-out path:
		// every sequential fallback returns no worker stats.
		sp := extmem.NewSpace(cfg)
		ext := sp.Alloc(n)
		key := sortInput(ext, "random", n+7)
		if ws := ParallelSortRecords(ext, 1, key, 2); len(ws) == 0 {
			t.Fatal("multi-pass input fell back to the sequential engine")
		}
	}
	s := parallelSorters[0] // multiway
	for _, shape := range sortShapes {
		t.Run(shape, func(t *testing.T) {
			ref := extmem.NewSpace(cfg)
			refExt := ref.Alloc(n)
			key := sortInput(refExt, shape, n+7)
			SortRecords(refExt, 1, key)
			want := make([]extmem.Word, n)
			refExt.Load(want)

			var base extmem.Stats
			for i, workers := range []int{1, 2, 8} {
				got, stats := parallelSortRun(cfg, n, shape, s, workers)
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("workers=%d: word %d = %#x, sequential has %#x", workers, j, got[j], want[j])
					}
				}
				if i == 0 {
					base = stats
					if base.IOs() == 0 {
						t.Fatal("no I/Os measured on a multi-pass sort")
					}
				} else if stats != base {
					t.Errorf("workers=%d: aggregated stats %+v differ from workers=1 %+v", workers, stats, base)
				}
			}
		})
	}
}

// TestParallelSortMultipassStride: multi-pass byte-identity with stride-2
// records and heavy key ties — the stable (key, word, run) merge order
// must survive the intermediate passes' run renumbering.
func TestParallelSortMultipassStride(t *testing.T) {
	cfg := extmem.Config{M: 512, B: 64, AllowShortCache: true}
	nRec := int64(4096)
	build := func(sp *extmem.Space) extmem.Extent {
		ext := sp.Alloc(2 * nRec)
		rng := rand.New(rand.NewSource(97))
		for i := int64(0); i < nRec; i++ {
			ext.Write(2*i, uint64(rng.Intn(24))) // ~170 records per key word
			ext.Write(2*i+1, uint64(i))          // distinct payload
		}
		return ext
	}
	ref := extmem.NewSpace(cfg)
	refExt := build(ref)
	SortRecords(refExt, 2, Identity)
	want := make([]extmem.Word, 2*nRec)
	refExt.Load(want)
	for _, workers := range []int{1, 2, 8} {
		sp := extmem.NewSpace(cfg)
		ext := build(sp)
		if ws := ParallelSortRecords(ext, 2, Identity, workers); len(ws) == 0 {
			t.Fatal("multi-pass stride-2 input fell back to the sequential engine")
		}
		got := make([]extmem.Word, 2*nRec)
		ext.Load(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: word %d = %d, sequential has %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestParallelSortDefaultWorkers: workers <= 0 resolves to one worker per
// CPU and still sorts correctly.
func TestParallelSortDefaultWorkers(t *testing.T) {
	for _, s := range parallelSorters {
		sp := extmem.NewSpace(extmem.Config{M: 1 << 12, B: 1 << 6})
		ext := sp.Alloc(20000)
		key := sortInput(ext, "random", 5)
		s.par(ext, 1, key, 0)
		if !IsSorted(ext, 1, key) {
			t.Fatalf("%s: not sorted with default workers", s.name)
		}
	}
}

// TestParallelSortConcurrentSpaces: distinct coordinator Spaces may sort
// concurrently (the engine must not share mutable state across calls);
// exercised under -race in CI.
func TestParallelSortConcurrentSpaces(t *testing.T) {
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			sp := extmem.NewSpace(extmem.Config{M: 1 << 12, B: 1 << 6})
			ext := sp.Alloc(20000)
			key := sortInput(ext, "random", int64(g))
			ParallelSortRecords(ext, 1, key, 2)
			if !IsSorted(ext, 1, key) {
				done <- fmt.Errorf("goroutine %d: not sorted", g)
				return
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
