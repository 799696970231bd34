// Benchmark harness: one bench per experiment in EXPERIMENTS.md (which in
// turn covers every theorem/lemma of the paper — its "tables and
// figures"). Each benchmark reports, besides ns/op, the measured block
// I/Os and the ratio to the theoretical bound as custom metrics, so
// `go test -bench=.` regenerates the paper's complexity claims.
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/emsort"
	"repro/internal/expt"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
	"repro/internal/subgraph"
	"repro/internal/trienum"
)

// benchMeasure runs one cold measurement per iteration and reports I/O
// metrics.
func benchMeasure(b *testing.B, el graph.EdgeList, m expt.Machine, runner string, bound float64) {
	b.Helper()
	var last expt.Measurement
	for i := 0; i < b.N; i++ {
		last = expt.Measure(el, m, expt.Runner(runner), uint64(i)+1)
	}
	b.ReportMetric(float64(last.IOs), "IOs")
	if bound > 0 {
		b.ReportMetric(float64(last.IOs)/bound, "IOs/bound")
	}
	b.ReportMetric(float64(last.Triangles), "triangles")
}

// BenchmarkE1CacheAwareScaling — Theorem 4: I/Os = O(E^1.5/(sqrt(M)·B)).
func BenchmarkE1CacheAwareScaling(b *testing.B) {
	m := expt.Machine{M: 1 << 11, B: 1 << 5}
	for _, n := range []int{64, 91, 128, 181} {
		el := graph.Clique(n)
		e := int64(n * (n - 1) / 2)
		b.Run(fmt.Sprintf("clique/E=%d", e), func(b *testing.B) {
			benchMeasure(b, el, m, "cacheaware", expt.OptBound(e, m))
		})
	}
	for _, e := range []int{8192, 32768} {
		el := graph.GNM(e/4, e, uint64(e))
		b.Run(fmt.Sprintf("gnm/E=%d", e), func(b *testing.B) {
			benchMeasure(b, el, m, "cacheaware", expt.OptBound(int64(e), m))
		})
	}
}

// BenchmarkE2ObliviousScaling — Theorem 1: cache-oblivious, same bound.
func BenchmarkE2ObliviousScaling(b *testing.B) {
	m := expt.Machine{M: 1 << 11, B: 1 << 5}
	for _, n := range []int{64, 91, 128} {
		el := graph.Clique(n)
		e := int64(n * (n - 1) / 2)
		b.Run(fmt.Sprintf("clique/E=%d", e), func(b *testing.B) {
			benchMeasure(b, el, m, "oblivious", expt.OptBound(e, m))
		})
	}
	// The same program against different caches.
	el := graph.GNM(2048, 8192, 7)
	for _, m := range []expt.Machine{{M: 1 << 9, B: 1 << 4}, {M: 1 << 11, B: 1 << 5}, {M: 1 << 13, B: 1 << 6}} {
		b.Run(fmt.Sprintf("gnm8192/M=%d/B=%d", m.M, m.B), func(b *testing.B) {
			benchMeasure(b, el, m, "oblivious", expt.OptBound(8192, m))
		})
	}
}

// BenchmarkE3DeterministicScaling — Theorem 2: derandomized, worst case.
func BenchmarkE3DeterministicScaling(b *testing.B) {
	m := expt.Machine{M: 1 << 9, B: 1 << 4}
	for _, e := range []int{4096, 16384} {
		el := graph.GNM(e/4, e, uint64(e)*3)
		b.Run(fmt.Sprintf("gnm/E=%d", e), func(b *testing.B) {
			benchMeasure(b, el, m, "deterministic", expt.OptBound(int64(e), m))
		})
	}
}

// BenchmarkE4OptimalityGap — Theorem 3: I/Os vs the lower bound on the
// extremal instance (cliques, t = Θ(E^1.5)).
func BenchmarkE4OptimalityGap(b *testing.B) {
	m := expt.Machine{M: 1 << 10, B: 1 << 5}
	for _, name := range []string{"cacheaware", "oblivious", "deterministic", "hutaochung"} {
		b.Run(name, func(b *testing.B) {
			el := graph.Clique(128)
			var last expt.Measurement
			for i := 0; i < b.N; i++ {
				last = expt.Measure(el, m, expt.Runner(name), uint64(i)+1)
			}
			lb := expt.LowerBound(last.Triangles, m)
			b.ReportMetric(float64(last.IOs), "IOs")
			b.ReportMetric(float64(last.IOs)/lb, "IOs/lowerbound")
		})
	}
}

// BenchmarkE5ImprovementFactor — the min(sqrt(E/M), sqrt(M)) improvement
// over Hu–Tao–Chung.
func BenchmarkE5ImprovementFactor(b *testing.B) {
	m := expt.Machine{M: 1 << 10, B: 1 << 5}
	for _, n := range []int{128, 181, 256} {
		el := graph.Clique(n)
		e := int64(n * (n - 1) / 2)
		b.Run(fmt.Sprintf("E=%d", e), func(b *testing.B) {
			var hu, ca expt.Measurement
			for i := 0; i < b.N; i++ {
				hu = expt.Measure(el, m, expt.Runner("hutaochung"), 5)
				ca = expt.Measure(el, m, expt.Runner("cacheaware"), 5)
			}
			b.ReportMetric(float64(hu.IOs)/float64(ca.IOs), "improvement")
		})
	}
}

// BenchmarkE6ColoringBalance — Lemma 3: E[X_ξ] <= E·M.
func BenchmarkE6ColoringBalance(b *testing.B) {
	m := expt.Machine{M: 1 << 9, B: 1 << 4}
	el := graph.PowerLaw(6000, 16384, 2.1, 62)
	b.Run("powerlaw/E=16384", func(b *testing.B) {
		var x uint64
		for i := 0; i < b.N; i++ {
			ms := expt.Measure(el, m, expt.Runner("cacheaware"), uint64(i)+1)
			x = ms.Info.X
		}
		b.ReportMetric(float64(x)/(16384*float64(m.M)), "X/(E*M)")
	})
}

// BenchmarkE7MemorySweep — I/Os at fixed E as M varies.
func BenchmarkE7MemorySweep(b *testing.B) {
	el := graph.GNM(4096, 16384, 71)
	for _, mWords := range []int{1 << 8, 1 << 12} {
		m := expt.Machine{M: mWords, B: 1 << 4}
		for _, name := range []string{"cacheaware", "hutaochung", "nestedloop"} {
			b.Run(fmt.Sprintf("M=%d/%s", mWords, name), func(b *testing.B) {
				benchMeasure(b, el, m, name, 0)
			})
		}
	}
}

// BenchmarkE8Comparison — all algorithms on a representative workload.
func BenchmarkE8Comparison(b *testing.B) {
	el := graph.PowerLaw(3000, 8192, 2.1, 82)
	m := expt.Machine{M: 1 << 10, B: 1 << 5}
	for _, r := range expt.Runners() {
		b.Run(r.Name, func(b *testing.B) {
			benchMeasure(b, el, m, r.Name, 0)
		})
	}
}

// BenchmarkE9KClique — Section 6: k=4 cliques, bound E²/(M·B).
func BenchmarkE9KClique(b *testing.B) {
	m := expt.Machine{M: 1 << 10, B: 1 << 5}
	for _, n := range []int{64, 91} {
		el := graph.Clique(n)
		b.Run(fmt.Sprintf("clique%d", n), func(b *testing.B) {
			var ios uint64
			var cliques uint64
			for i := 0; i < b.N; i++ {
				sp := extmem.NewSpace(extmem.Config{M: m.M, B: m.B})
				g := graph.CanonicalizeList(sp, el)
				sp.DropCache()
				sp.ResetStats()
				info, workerStats, err := subgraph.KCliqueParallel(sp, g, 4, uint64(i)+1, trienum.Exec{}, func([]uint32) {})
				if err != nil {
					b.Fatal(err)
				}
				sp.Flush()
				ios = sp.Stats().IOs()
				for _, w := range workerStats {
					ios += w.IOs()
				}
				cliques = info.Cliques
			}
			e := float64(n * (n - 1) / 2)
			b.ReportMetric(float64(ios), "IOs")
			b.ReportMetric(float64(ios)/(e*e/(float64(m.M)*float64(m.B))), "IOs/bound")
			b.ReportMetric(float64(cliques), "cliques")
		})
	}
}

// BenchmarkE10Sorting — the sort(E) substrate: multiway vs funnelsort vs
// binary oblivious mergesort.
func BenchmarkE10Sorting(b *testing.B) {
	m := expt.Machine{M: 1 << 10, B: 1 << 5}
	n := int64(1 << 15)
	sorters := []struct {
		name string
		fn   graph.SortFunc
	}{
		{"multiway", emsort.SortRecords},
		{"funnel", emsort.FunnelSortRecords},
		{"binary", emsort.ObliviousSortRecords},
	}
	for _, s := range sorters {
		b.Run(s.name, func(b *testing.B) {
			var ios uint64
			for i := 0; i < b.N; i++ {
				sp := extmem.NewSpace(extmem.Config{M: m.M, B: m.B})
				ext := sp.Alloc(n)
				rng := hashing.NewRand(uint64(i))
				for j := int64(0); j < n; j++ {
					ext.Write(j, rng.Next())
				}
				sp.DropCache()
				sp.ResetStats()
				s.fn(ext, 1, emsort.Identity)
				sp.Flush()
				ios = sp.Stats().IOs()
			}
			b.ReportMetric(float64(ios), "IOs")
		})
	}
}

// BenchmarkE11RecursionConcentration — Lemmas 4–5: one oblivious run,
// reporting the top-of-recursion concentration ratios as metrics.
func BenchmarkE11RecursionConcentration(b *testing.B) {
	m := expt.Machine{M: 1 << 11, B: 1 << 5}
	el := graph.GNM(2048, 8192, 41)
	var last expt.Measurement
	for i := 0; i < b.N; i++ {
		last = expt.Measure(el, m, expt.Runner("oblivious"), 11)
	}
	if len(last.Info.Recursion) > 3 {
		lv := last.Info.Recursion[3]
		e := float64(last.Edges)
		b.ReportMetric(float64(lv.TotalEdges)/(e*8), "lvl3_total/(E*2^3)")
		b.ReportMetric(float64(lv.TotalEdges)/float64(lv.Subproblems)/(e/64), "lvl3_mean/(E/4^3)")
	}
}

// BenchmarkE12ListingOverhead — Section 1: the Θ(t/B) materialization
// cost of listing over enumeration on the triangle-dense instance.
func BenchmarkE12ListingOverhead(b *testing.B) {
	m := expt.Machine{M: 1 << 11, B: 1 << 5}
	el := graph.Clique(91)
	var ratio float64
	for i := 0; i < b.N; i++ {
		sp := extmem.NewSpace(extmem.Config{M: m.M, B: m.B})
		g := graph.CanonicalizeList(sp, el)
		sp.DropCache()
		sp.ResetStats()
		var n uint64
		_, workerStats, err := trienum.CacheAwareParallel(sp, g, 12, trienum.Exec{}, graph.Counter(&n))
		if err != nil {
			b.Fatal(err)
		}
		sp.Flush()
		enum := sp.Stats().IOs()
		for _, w := range workerStats {
			enum += w.IOs()
		}
		sp.DropCache()
		sp.ResetStats()
		list, _, err := trienum.ListTriangles(sp, g, 12, trienum.Exec{})
		if err != nil {
			b.Fatal(err)
		}
		sp.Flush()
		lst := sp.Stats().IOs()
		ratio = (float64(lst) - 2*float64(enum)) / (2 * float64(list.Len()) / float64(m.B))
	}
	b.ReportMetric(ratio, "extra/(2t/B)")
}

// BenchmarkE13ParallelWorkers — the worker-pool engine on a large graph:
// wall-clock scaling with the worker count. The aggregated block-I/O
// totals are identical at every worker count (reported as a metric so the
// invariance is visible in the bench output); only wall time changes.
// build_ms and query_ms split each iteration's wall-clock between Build
// and the TrianglesFunc query.
func BenchmarkE13ParallelWorkers(b *testing.B) {
	edges, err := Generate("powerlaw:n=12000,m=64000,beta=2.1", 13)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts(1, 2, 4, runtime.NumCPU()) {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var last Result
			var build, query time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				g, err := Build(FromEdges(edges), Options{MemoryWords: 1 << 12, BlockWords: 1 << 6, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				last, err = g.TrianglesFunc(nil, Query{Seed: 3}, nil)
				build, query = build+t1.Sub(t0), query+time.Since(t1)
				g.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(last.Stats.IOs()), "IOs")
			b.ReportMetric(float64(last.Subproblems), "subproblems")
			b.ReportMetric(float64(build.Nanoseconds())/1e6/float64(b.N), "build_ms")
			b.ReportMetric(float64(query.Nanoseconds())/1e6/float64(b.N), "query_ms")
		})
	}
}

// buildAndCount is the end-to-end pipeline the E13/E14/E16 and public-API
// benchmarks time: Build (the O(sort(E)) canonicalization) plus one
// counting TrianglesFunc query, whose Result it returns.
func buildAndCount(b *testing.B, edges [][2]uint32, opts Options, q Query) Result {
	b.Helper()
	res, err := buildQuery(edges, opts, q, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchWorkerCounts returns the sorted distinct worker counts to sweep.
func benchWorkerCounts(counts ...int) []int {
	slices.Sort(counts)
	return slices.Compact(counts)
}

// BenchmarkE14ParallelDeterministic — the same scaling for the
// derandomized algorithm, whose greedy coloring is a sequential prefix.
func BenchmarkE14ParallelDeterministic(b *testing.B) {
	edges, err := Generate("gnm:n=4000,m=24000", 17)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts(1, runtime.NumCPU()) {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var ios uint64
			for i := 0; i < b.N; i++ {
				res := buildAndCount(b, edges, Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: w}, Query{Algorithm: Deterministic})
				ios = res.Stats.IOs()
			}
			b.ReportMetric(float64(ios), "IOs")
		})
	}
}

// BenchmarkE15ParallelSort — the parallel sort(E) substrate standalone:
// wall-clock scaling of ParallelSortRecords with the worker count. The
// aggregated block-I/O totals are identical at every worker count
// (reported as a metric so the invariance is visible in the bench output);
// only wall time changes.
func BenchmarkE15ParallelSort(b *testing.B) {
	cfg := extmem.Config{M: 1 << 12, B: 1 << 6}
	n := int64(1 << 15)
	for _, w := range benchWorkerCounts(1, 2, 4, runtime.NumCPU()) {
		b.Run(fmt.Sprintf("multiway/workers=%d", w), func(b *testing.B) {
			var ios uint64
			for i := 0; i < b.N; i++ {
				sp := extmem.NewSpace(cfg)
				ext := sp.Alloc(n)
				rng := hashing.NewRand(uint64(i))
				for j := int64(0); j < n; j++ {
					ext.Write(j, rng.Next())
				}
				sp.DropCache()
				sp.ResetStats()
				ws := emsort.ParallelSortRecords(ext, 1, emsort.Identity, w)
				sp.Flush()
				total := sp.Stats()
				for _, s := range ws {
					total.Add(s)
				}
				ios = total.IOs()
			}
			b.ReportMetric(float64(ios), "IOs")
		})
	}
}

// BenchmarkE16ParallelPipeline — the parallel sorts in-pipeline: the full
// public entry point (canonicalization + enumeration) under a worker
// sweep, so the sort(E) terms that PR 2 parallelized are measured where
// they actually occur. IOs and canonIOs are worker-invariant metrics.
func BenchmarkE16ParallelPipeline(b *testing.B) {
	edges, err := Generate("powerlaw:n=12000,m=64000,beta=2.1", 23)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts(1, 2, 4, runtime.NumCPU()) {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var last Result
			for i := 0; i < b.N; i++ {
				last = buildAndCount(b, edges, Options{MemoryWords: 1 << 12, BlockWords: 1 << 6, Workers: w}, Query{Seed: 7})
			}
			b.ReportMetric(float64(last.Stats.IOs()), "IOs")
			b.ReportMetric(float64(last.CanonIOs), "canonIOs")
		})
	}
}

// BenchmarkE17ConcurrentQueries — per-query sessions: query throughput on
// one shared handle as the number of querying goroutines grows. Each op
// is one full triangle query at Workers=1, so the parallelism measured is
// across queries, not inside them; ns/op shrinking with the goroutine
// count is the session model's win. The per-query block I/Os are reported
// as a metric (and asserted equal across all goroutines) to witness that
// concurrency changes wall-clock only — every session runs the identical
// cold machine.
func BenchmarkE17ConcurrentQueries(b *testing.B) {
	edges, err := Generate("gnm:n=3000,m=18000", 29)
	if err != nil {
		b.Fatal(err)
	}
	g, err := Build(FromEdges(edges), Options{MemoryWords: 1 << 12, BlockWords: 1 << 6})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	for _, n := range benchWorkerCounts(1, 2, 4, runtime.NumCPU()) {
		b.Run(fmt.Sprintf("goroutines=%d", n), func(b *testing.B) {
			perQuery := make([]uint64, n)
			jobs := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					failed := false
					// Keep draining jobs after a failure so the b.N send
					// loop never blocks on a dead pool.
					for range jobs {
						if failed {
							continue
						}
						res, err := g.TrianglesFunc(nil, Query{Seed: 5, Workers: 1}, nil)
						if err != nil {
							b.Error(err)
							failed = true
							continue
						}
						perQuery[w] = res.Stats.IOs()
					}
				}(w)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jobs <- struct{}{}
			}
			close(jobs)
			wg.Wait()
			var ios uint64
			for _, q := range perQuery {
				if q == 0 {
					continue // goroutine never got a job (b.N < n)
				}
				if ios == 0 {
					ios = q
				} else if q != ios {
					b.Fatalf("per-query IOs drifted under concurrency: %d vs %d", q, ios)
				}
			}
			b.ReportMetric(float64(ios), "IOs")
		})
	}
}

// BenchmarkE18UpdateDelta — updatable handles: merging a ~1% edge delta
// into the frozen canonical image (Update) vs. paying the full
// O(sort(E)) canonicalization again (Build of the updated set). Both
// reported metrics are deterministic block counts — mergeIOs is the
// UpdateResult.MergeIOs of the delta merge, rebuildIOs the fresh build's
// CanonIOs — and the benchmark fails outright if the merge is not
// strictly cheaper, which is the point of the delta path: the merge
// replaces the raw-edge, endpoint-doubling, and vertex-table sorts with
// scans, keeping only the two relabeling sorts at sort(E) scale.
func BenchmarkE18UpdateDelta(b *testing.B) {
	edges, err := Generate("gnm:n=4000,m=32000", 31)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{MemoryWords: 1 << 12, BlockWords: 1 << 6, Workers: 1}
	var d Delta
	for i := 0; i < 160; i++ {
		d.Remove = append(d.Remove, edges[(i*97)%len(edges)])
		d.Add = append(d.Add, [2]uint32{uint32(i * 3 % 4000), uint32(50000 + i)})
	}

	var mergeIOs, rebuildIOs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := Build(FromEdges(edges), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := g.Update(nil, d)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		mergeIOs = res.MergeIOs
		if rebuildIOs == 0 {
			model := newEdgeSet(edges)
			model.apply(d)
			fresh, err := Build(FromEdges(model.slice()), opts)
			if err != nil {
				b.Fatal(err)
			}
			rebuildIOs = fresh.CanonIOs()
			fresh.Close()
		}
		g.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(mergeIOs), "mergeIOs")
	b.ReportMetric(float64(rebuildIOs), "rebuildIOs")
	if mergeIOs >= rebuildIOs {
		b.Fatalf("delta merge cost %d IOs >= full rebuild %d IOs", mergeIOs, rebuildIOs)
	}
}

// BenchmarkE19Reopen — durable images: adopting an existing canonical
// image (Open) vs. paying the full O(sort(E)) canonicalization again
// (Build). The adopted generation reports CanonIOs = 0; the only I/O
// Open spends is the O(scan(V)) rank-table adoption, reported as
// reopenIOs, and — when a write-ahead log survived a crash — the
// deterministic replay merges, reported as replayIOs for a one-record
// log. The benchmark fails outright if adoption is not strictly cheaper
// than the rebuild, which is the point of the durable format: reopening
// costs a vertex-table scan, not a canonicalization.
func BenchmarkE19Reopen(b *testing.B) {
	edges, err := Generate("gnm:n=4000,m=32000", 31)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{MemoryWords: 1 << 12, BlockWords: 1 << 6, Workers: 1}
	var d Delta
	for i := 0; i < 160; i++ {
		d.Remove = append(d.Remove, edges[(i*97)%len(edges)])
		d.Add = append(d.Add, [2]uint32{uint32(i * 3 % 4000), uint32(50000 + i)})
	}

	dir := b.TempDir()
	path := filepath.Join(dir, "e19.img")
	opts.DiskPath = path
	g, err := Build(FromEdges(edges), opts)
	if err != nil {
		b.Fatal(err)
	}
	rebuildIOs := g.CanonIOs()
	if err := g.Close(); err != nil {
		b.Fatal(err)
	}
	// A crashed sibling: same graph, plus a one-record log to replay.
	crashPath := filepath.Join(dir, "e19crash.img")
	cg, err := Build(FromEdges(edges), Options{MemoryWords: opts.MemoryWords, BlockWords: opts.BlockWords, Workers: 1, DiskPath: crashPath})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cg.Update(nil, d); err != nil {
		b.Fatal(err)
	}
	crashImg, err := os.ReadFile(crashPath)
	if err != nil {
		b.Fatal(err)
	}
	crashWal, err := os.ReadFile(crashPath + ".wal")
	if err != nil {
		b.Fatal(err)
	}
	if err := cg.Close(); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(crashPath, crashImg, 0o644); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(crashPath+".wal", crashWal, 0o644); err != nil {
		b.Fatal(err)
	}

	var reopenIOs, replayIOs uint64
	for i := 0; i < b.N; i++ {
		ro, or, err := Open(path, opts)
		if err != nil {
			b.Fatal(err)
		}
		reopenIOs = or.AdoptIOs
		if ro.CanonIOs() != 0 {
			b.Fatalf("adopted image reports CanonIOs=%d", ro.CanonIOs())
		}
		if err := ro.Close(); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		// Restore the crash state the replay consumes (Close promotes it).
		if err := os.WriteFile(crashPath, crashImg, 0o644); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(crashPath+".wal", crashWal, 0o644); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rc, ror, err := Open(crashPath, Options{MemoryWords: opts.MemoryWords, BlockWords: opts.BlockWords, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if ror.Replayed != 1 {
			b.Fatalf("crash copy replayed %d records, want 1", ror.Replayed)
		}
		replayIOs = ror.AdoptIOs + ror.ReplayIOs
		if err := rc.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(reopenIOs), "reopenIOs")
	b.ReportMetric(float64(replayIOs), "replayIOs")
	b.ReportMetric(float64(rebuildIOs), "rebuildIOs")
	if reopenIOs >= rebuildIOs {
		b.Fatalf("reopen cost %d IOs >= full rebuild %d IOs", reopenIOs, rebuildIOs)
	}
	if replayIOs >= rebuildIOs {
		b.Fatalf("crash recovery cost %d IOs >= full rebuild %d IOs", replayIOs, rebuildIOs)
	}
}

// BenchmarkE21Subscribe — standing queries: the differential kernel's
// cost of turning a ~1% edge delta into an exact triangle ChangeSet vs.
// re-enumerating the whole updated graph and diffing by hand. diffIOs is
// the subscription's ChangeSet.Stats.IOs() — the closure scans of both
// the retracted and installed generations — and fullIOs is a fresh
// TrianglesFunc pass over the updated image. The two subscriptions run
// at Workers 1 and 4 and every iteration asserts their ChangeSets are
// deeply equal (emissions and I/O stats), pinning the determinism
// contract inside the measurement loop; the benchmark fails outright if
// the differential path is not strictly cheaper than re-enumeration,
// which is the point of a standing query.
func BenchmarkE21Subscribe(b *testing.B) {
	edges, err := Generate("gnm:n=4000,m=32000", 31)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{MemoryWords: 1 << 12, BlockWords: 1 << 6, Workers: 1}
	var d Delta
	for i := 0; i < 160; i++ {
		d.Remove = append(d.Remove, edges[(i*97)%len(edges)])
		d.Add = append(d.Add, [2]uint32{uint32(i * 3 % 4000), uint32(50000 + i)})
	}

	var diffIOs, fullIOs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := Build(FromEdges(edges), opts)
		if err != nil {
			b.Fatal(err)
		}
		sub1, err := g.Subscribe(nil, Query{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		sub4, err := g.Subscribe(nil, Query{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := g.Update(nil, d); err != nil {
			b.Fatal(err)
		}
		cs1, cs4 := <-sub1.Changes(), <-sub4.Changes()
		b.StopTimer()
		if !reflect.DeepEqual(cs1, cs4) {
			b.Fatalf("ChangeSets drifted across Workers: %+v vs %+v", cs1, cs4)
		}
		diffIOs = cs1.Stats.IOs()
		if fullIOs == 0 {
			res, err := g.TrianglesFunc(nil, Query{Workers: 1}, nil)
			if err != nil {
				b.Fatal(err)
			}
			fullIOs = res.Stats.IOs()
		}
		g.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(diffIOs), "diffIOs")
	b.ReportMetric(float64(fullIOs), "fullIOs")
	if diffIOs >= fullIOs {
		b.Fatalf("differential pass cost %d IOs >= full re-enumeration %d IOs", diffIOs, fullIOs)
	}
}

// BenchmarkEnumeratePublicAPI measures the end-to-end public entry point,
// including canonicalization, at a realistic configuration.
func BenchmarkEnumeratePublicAPI(b *testing.B) {
	edges, err := Generate("powerlaw:n=10000,m=40000,beta=2.2", 9)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []Algorithm{CacheAware, HuTaoChung} {
		b.Run(alg.String(), func(b *testing.B) {
			var ios uint64
			for i := 0; i < b.N; i++ {
				res := buildAndCount(b, edges, Options{MemoryWords: 1 << 12, BlockWords: 1 << 6}, Query{Algorithm: alg, Seed: 3})
				ios = res.Stats.IOs()
			}
			b.ReportMetric(float64(ios), "IOs")
		})
	}
}

// BenchmarkE22Native — the native execution mode (PR 9) against the
// simulated machine it mirrors: the same query runs three times each way
// per iteration, alternating which mode goes first, every pair of
// transcripts is asserted byte-identical, and each mode is timed as its
// fastest run of the three (reported as simNs/op and natNs/op, plus
// their ratio as the speedup metric). Native must be
// strictly faster — it runs the identical decomposition minus the
// block-transfer bookkeeping — even single-threaded on one core; the
// multi-core speedups are documented in EXPERIMENTS.md §E22. Instances
// reuse the E13/E16 powerlaw graph, the E17 gnm graph, and E10's funnel
// sort, so the native numbers line up with the simulated baselines of
// those experiments.
func BenchmarkE22Native(b *testing.B) {
	instances := []struct {
		name  string
		spec  string
		seed  uint64
		qseed uint64
	}{
		{"E13/powerlaw", "powerlaw:n=12000,m=64000,beta=2.1", 13, 3},
		{"E16/powerlaw", "powerlaw:n=12000,m=64000,beta=2.1", 23, 7},
		{"E17/gnm", "gnm:n=3000,m=18000", 29, 5},
	}
	for _, inst := range instances {
		edges, err := Generate(inst.spec, inst.seed)
		if err != nil {
			b.Fatal(err)
		}
		g, err := Build(FromEdges(edges), Options{MemoryWords: 1 << 12, BlockWords: 1 << 6})
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range benchWorkerCounts(1, runtime.NumCPU()) {
			b.Run(fmt.Sprintf("%s/workers=%d", inst.name, w), func(b *testing.B) {
				var simT, natT time.Duration
				var sim, nat []uint32
				run := func(mode ExecMode, buf []uint32) ([]uint32, time.Duration, error) {
					buf = buf[:0]
					start := time.Now()
					_, err := g.TrianglesFunc(nil, Query{Seed: inst.qseed, Workers: w, Mode: mode}, func(x, y, z uint32) {
						buf = append(buf, x, y, z)
					})
					return buf, time.Since(start), err
				}
				for i := 0; i < b.N; i++ {
					// Each mode counts its fastest of three runs, and the
					// mode that goes first alternates: on a loaded box one
					// run of a query tens of ms long can lose to noise.
					var dSim, dNat time.Duration
					for r := range 3 {
						for j := range 2 {
							mode, out, best := ModeSimulated, &sim, &dSim
							if (3*i+r+j)%2 == 1 {
								mode, out, best = ModeNative, &nat, &dNat
							}
							var d time.Duration
							if *out, d, err = run(mode, *out); err != nil {
								b.Fatal(err)
							}
							if *best == 0 || d < *best {
								*best = d
							}
						}
						if !slices.Equal(sim, nat) {
							b.Fatalf("iteration %d, run %d: native emission differs from simulated (%d vs %d vertices)", i, r, len(nat), len(sim))
						}
					}
					simT += dSim
					natT += dNat
				}
				b.ReportMetric(float64(simT.Nanoseconds())/float64(b.N), "simNs/op")
				b.ReportMetric(float64(natT.Nanoseconds())/float64(b.N), "natNs/op")
				b.ReportMetric(float64(simT)/float64(natT), "speedup")
				if natT >= simT {
					b.Fatalf("native execution not faster: native %v >= simulated %v over %d iterations", natT, simT, b.N)
				}
			})
		}
		g.Close()
	}

	// E10's funnel sort, the cache-oblivious sort the §3 tasks run, over
	// E10's 1<<15 random words on its machine, simulated vs native Space,
	// sorted output asserted word-identical each iteration.
	b.Run("E10/funnel-sort", func(b *testing.B) {
		n := int64(1 << 15)
		var simT, natT time.Duration
		sortOnce := func(native bool, seed uint64) ([]extmem.Word, time.Duration) {
			cfg := extmem.Config{M: 1 << 10, B: 1 << 5, Native: native}
			sp := extmem.NewSpace(cfg)
			ext := sp.Alloc(n)
			rng := hashing.NewRand(seed)
			for j := int64(0); j < n; j++ {
				ext.Write(j, rng.Next())
			}
			sp.DropCache()
			start := time.Now()
			emsort.FunnelSortRecords(ext, 1, emsort.Identity)
			d := time.Since(start)
			out := sp.Snapshot(ext)
			sp.Close()
			return out, d
		}
		for i := 0; i < b.N; i++ {
			seed := uint64(i) + 1
			sim, dSim := sortOnce(false, seed)
			nat, dNat := sortOnce(true, seed)
			if !slices.Equal(sim, nat) {
				b.Fatalf("iteration %d: native sort output differs", i)
			}
			simT += dSim
			natT += dNat
		}
		b.ReportMetric(float64(simT.Nanoseconds())/float64(b.N), "simNs/op")
		b.ReportMetric(float64(natT.Nanoseconds())/float64(b.N), "natNs/op")
		b.ReportMetric(float64(simT)/float64(natT), "speedup")
		if natT >= simT {
			b.Fatalf("native sort not faster: native %v >= simulated %v over %d iterations", natT, simT, b.N)
		}
	})
}
