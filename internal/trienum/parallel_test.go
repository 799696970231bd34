package trienum

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
)

// parallelRun executes one engine run and returns the emission sequence
// (in emission order, not sorted — the ordering is part of the contract),
// the coordinator stats, and the summed worker stats.
func parallelRun(t *testing.T, el graph.EdgeList, cfg extmem.Config, workers int,
	run func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, []extmem.Stats)) ([]graph.Triple, extmem.Stats, Info) {
	t.Helper()
	sp := extmem.NewSpace(cfg)
	g := graph.CanonicalizeList(sp, el)
	sp.DropCache()
	sp.ResetStats()
	var got []graph.Triple
	info, ws := run(sp, g, Exec{Workers: workers}, func(a, b, c uint32) {
		got = append(got, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
	})
	sp.Flush()
	total := sp.Stats()
	for _, w := range ws {
		total.Add(w)
	}
	return got, total, info
}

var parallelEngines = []struct {
	name string
	run  func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, []extmem.Stats)
}{
	{"cacheaware", func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, []extmem.Stats) {
		info, ws, err := CacheAwareParallel(sp, g, 12345, exec, emit)
		if err != nil {
			panic(err)
		}
		return info, ws
	}},
	{"deterministic", func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, []extmem.Stats) {
		info, ws, err := DeterministicParallel(sp, g, 0, exec, emit)
		if err != nil {
			panic(err)
		}
		return info, ws
	}},
	{"oblivious", func(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, []extmem.Stats) {
		info, ws, err := ObliviousParallel(sp, g, 12345, exec, emit)
		if err != nil {
			panic(err)
		}
		return info, ws
	}},
}

// parallelWorkloads deliberately includes the skewed and high-degree
// generators so the Lemma 1 shard path is exercised, not just the triples.
func parallelWorkloads() map[string]graph.EdgeList {
	hubs := graph.GNM(500, 1200, 3)
	for v := uint32(0); v < 400; v++ {
		hubs.Add(498, v)
		hubs.Add(499, v)
	}
	return map[string]graph.EdgeList{
		"empty":    {},
		"triangle": graph.Clique(3),
		"k20":      graph.Clique(20),
		"gnm":      graph.GNM(150, 1200, 11),
		"powerlaw": graph.PowerLaw(200, 1500, 2.1, 12),
		"planted":  graph.PlantedClique(120, 600, 12, 13),
		"rmat":     graph.RMAT(7, 700, 8),
		"hubs":     hubs,
		"star":     star(40),
	}
}

// TestParallelDeterministicAcrossWorkerCounts is the engine's core
// contract: for Workers ∈ {1, 2, 8} the emission sequence is
// byte-identical and the aggregated block-I/O counts are equal, on every
// workload, for every engine.
func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}
	for name, el := range parallelWorkloads() {
		for _, eng := range parallelEngines {
			t.Run(name+"/"+eng.name, func(t *testing.T) {
				base, baseStats, baseInfo := parallelRun(t, el, cfg, 1, eng.run)
				if ok, diag := graph.NewOracle(el).SameSet(base); !ok {
					t.Fatalf("1-worker engine wrong: %s", diag)
				}
				for _, workers := range []int{2, 8} {
					got, stats, info := parallelRun(t, el, cfg, workers, eng.run)
					if len(got) != len(base) {
						t.Fatalf("workers=%d emitted %d triangles, workers=1 emitted %d", workers, len(got), len(base))
					}
					for i := range got {
						if got[i] != base[i] {
							t.Fatalf("workers=%d: emission %d = %v, workers=1 emitted %v (order must match)", workers, i, got[i], base[i])
						}
					}
					if stats.BlockReads != baseStats.BlockReads || stats.BlockWrites != baseStats.BlockWrites {
						t.Errorf("workers=%d: I/Os (r=%d w=%d) differ from workers=1 (r=%d w=%d)",
							workers, stats.BlockReads, stats.BlockWrites, baseStats.BlockReads, baseStats.BlockWrites)
					}
					if stats.WordReads != baseStats.WordReads || stats.WordWrites != baseStats.WordWrites {
						t.Errorf("workers=%d: word counts differ from workers=1", workers)
					}
					if info.Triangles != baseInfo.Triangles || info.Subproblems != baseInfo.Subproblems ||
						info.HighDegVertices != baseInfo.HighDegVertices || info.X != baseInfo.X {
						t.Errorf("workers=%d: Info differs: %+v vs %+v", workers, info, baseInfo)
					}
				}
			})
		}
	}
}

// TestParallelMatchesSequentialTriangleSet: at four workers the engine
// finds exactly the triangle multiset of its sequential run (Workers=1).
// TestParallelDeterministicAcrossWorkerCounts pins the stronger order and
// I/O identity; this is the set-level check on the same workloads.
func TestParallelMatchesSequentialTriangleSet(t *testing.T) {
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}
	for name, el := range parallelWorkloads() {
		t.Run(name, func(t *testing.T) {
			seq, _, _ := parallelRun(t, el, cfg, 1, parallelEngines[0].run)
			par, _, _ := parallelRun(t, el, cfg, 4, parallelEngines[0].run)
			want := map[graph.Triple]int{}
			for _, tr := range seq {
				want[tr]++
			}
			for _, tr := range par {
				want[tr]--
			}
			for tr, n := range want {
				if n != 0 {
					t.Fatalf("triangle %v: sequential-parallel multiplicity diff %d", tr, n)
				}
			}
		})
	}
}

// obliviousRecursion runs the Section 3 recursion body depth-first from
// the root on sp, with no planner: the reference stream ObliviousParallel
// must reproduce.
func obliviousRecursion(sp *extmem.Space, g graph.Canonical, seed uint64, emit graph.Emit) Info {
	var info Info
	E := g.Edges.Len()
	if E == 0 {
		return info
	}
	mark := sp.Mark()
	defer sp.Release(mark)
	o := &oblivious{sp: sp, emit: countingEmit(&info, emit), info: &info}
	o.work = sp.Alloc(E)
	g.Edges.CopyTo(o.work)
	o.ann = sp.Alloc(E)
	o.ann.Fill(1<<32 | 1) // root coloring ξ0 ≡ 1 on both endpoints
	o.scratchE = sp.Alloc(E)
	o.scratchA = sp.Alloc(E)
	for d := int64(1); d < E; d *= 4 {
		o.maxDepth++
	}
	o.recurse(0, E, [3]uint32{1, 1, 1}, 0, hashing.NewRand(seed))
	return info
}

// TestObliviousParallelMatchesSequentialStream is the oblivious engine's
// strongest oracle: the engine's emission sequence is byte-identical to
// one depth-first recursion from the root with the same seed — not just
// the same set — at every worker count, and the recursion bookkeeping
// (subproblem, base-case, high-degree, and per-level tallies) agrees
// exactly. This is what licenses the planner's split of the recursion.
func TestObliviousParallelMatchesSequentialStream(t *testing.T) {
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}
	for name, el := range parallelWorkloads() {
		t.Run(name, func(t *testing.T) {
			sp := extmem.NewSpace(cfg)
			g := graph.CanonicalizeList(sp, el)
			var seq []graph.Triple
			seqInfo := obliviousRecursion(sp, g, 12345, func(a, b, c uint32) {
				seq = append(seq, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
			})
			for _, workers := range []int{1, 4} {
				got, _, info := parallelRun(t, el, cfg, workers, parallelEngines[2].run)
				if len(got) != len(seq) {
					t.Fatalf("workers=%d emitted %d triangles, sequential emitted %d", workers, len(got), len(seq))
				}
				for i := range got {
					if got[i] != seq[i] {
						t.Fatalf("workers=%d: emission %d = %v, sequential emitted %v (order must match)", workers, i, got[i], seq[i])
					}
				}
				if info.Subproblems != seqInfo.Subproblems || info.BaseCases != seqInfo.BaseCases ||
					info.HighDegVertices != seqInfo.HighDegVertices || info.Triangles != seqInfo.Triangles {
					t.Errorf("workers=%d: Info differs from sequential: %+v vs %+v", workers, info, seqInfo)
				}
				if len(info.Recursion) != len(seqInfo.Recursion) {
					t.Fatalf("workers=%d: %d recursion levels, sequential has %d", workers, len(info.Recursion), len(seqInfo.Recursion))
				}
				for i, lv := range info.Recursion {
					if lv != seqInfo.Recursion[i] {
						t.Errorf("workers=%d: recursion level %d = %+v, sequential %+v", workers, i, lv, seqInfo.Recursion[i])
					}
				}
			}
		})
	}
}

// TestObliviousParallelInlineHighDegree drives the coordinator's Lemma 1
// tasks on triangles with several high-degree corners: the root lies above
// obSplitMinEdges, so the coordinator expands it inline, and its three
// mutually adjacent hubs share a neighbourhood, so each later hub's task
// must skip the wedges through the hubs before it. The stream and Info
// must be those of one depth-first recursion at Workers 1 and 4.
func TestObliviousParallelInlineHighDegree(t *testing.T) {
	var el graph.EdgeList
	hub := []uint32{500, 501, 502}
	el.Add(hub[0], hub[1])
	el.Add(hub[0], hub[2])
	el.Add(hub[1], hub[2])
	for v := uint32(0); v < 400; v++ {
		for _, h := range hub {
			el.Add(h, v)
		}
	}
	if len(el.Edges) <= obSplitMinEdges {
		t.Fatalf("%d edges: the root would be a subtree task", len(el.Edges))
	}
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}
	sp := extmem.NewSpace(cfg)
	g := graph.CanonicalizeList(sp, el)
	var seq []graph.Triple
	seqInfo := obliviousRecursion(sp, g, 12345, func(a, b, c uint32) {
		seq = append(seq, graph.MakeTriple(g.RankToID[a], g.RankToID[b], g.RankToID[c]))
	})
	if seqInfo.HighDegVertices < len(hub) || len(seq) != 3*400+1 {
		t.Fatalf("sequential run: %d high-degree vertices, %d triangles", seqInfo.HighDegVertices, len(seq))
	}
	for _, workers := range []int{1, 4} {
		got, _, info := parallelRun(t, el, cfg, workers, parallelEngines[2].run)
		if !slices.Equal(got, seq) {
			t.Fatalf("workers=%d: %d triangles differ from the sequential %d (order must match)", workers, len(got), len(seq))
		}
		if !reflect.DeepEqual(info, seqInfo) {
			t.Errorf("workers=%d: Info %+v, sequential %+v", workers, info, seqInfo)
		}
	}
}

// TestParallelHighDegreeExactlyOnce drives a graph whose triangles have
// two and three high-degree corners, the case the w < vr dedup filter
// must get right against the frozen edge set.
func TestParallelHighDegreeExactlyOnce(t *testing.T) {
	// Three mutually adjacent hubs over a shared neighborhood: triangles
	// {hub_i, hub_j, x} have two high-degree corners, {hub1, hub2, hub3}
	// has three.
	var el graph.EdgeList
	hub := []uint32{200, 201, 202}
	el.Add(hub[0], hub[1])
	el.Add(hub[0], hub[2])
	el.Add(hub[1], hub[2])
	for v := uint32(0); v < 150; v++ {
		for _, h := range hub {
			el.Add(h, v)
		}
	}
	// A second shared neighborhood keeps hub degrees (302) above the
	// sqrt(E·M) ≈ 240 threshold at M=64.
	for v := uint32(0); v < 150; v++ {
		el.Add(hub[0], 300+v)
		el.Add(hub[1], 300+v)
		el.Add(hub[2], 300+v)
	}
	cfg := extmem.Config{M: 1 << 6, B: 1 << 3}
	for _, eng := range parallelEngines {
		got, _, info := parallelRun(t, el, cfg, 4, eng.run)
		if info.HighDegVertices < 3 {
			t.Fatalf("%s: hubs not classified high-degree (got %d)", eng.name, info.HighDegVertices)
		}
		if ok, diag := graph.NewOracle(el).SameSet(got); !ok {
			t.Errorf("%s: %s", eng.name, diag)
		}
	}
}

// TestParallelListerTwoPassAgreement: ListTriangles runs the engine twice
// (count, then fill); the engine must give it the same stream both times,
// and the materialized list must pass the external checker.
func TestParallelListerTwoPassAgreement(t *testing.T) {
	el := graph.PlantedClique(100, 700, 12, 5)
	sp := extmem.NewSpace(extmem.Config{M: 1 << 10, B: 1 << 5})
	g := graph.CanonicalizeList(sp, el)
	list, info, err := ListTriangles(sp, g, 77, Exec{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ListLen(list) != int64(info.Triangles) {
		t.Fatalf("materialized %d triangles, info says %d", ListLen(list), info.Triangles)
	}
	if info.Triangles != graph.NewOracle(el).Count() {
		t.Fatalf("wrong count %d", info.Triangles)
	}
	if err := VerifyEnumeration(sp, g, list); err != nil {
		t.Fatal(err)
	}
}

// TestParallelEmitPanicDoesNotLeakWorkers: a panic in the caller's emit
// must propagate after unwinding the pool — workers and dispatcher exit
// instead of blocking forever on full streams.
func TestParallelEmitPanicDoesNotLeakWorkers(t *testing.T) {
	el := graph.Clique(40) // 9880 triangles: workers are mid-stream when emit dies
	sp := extmem.NewSpace(extmem.Config{M: 1 << 8, B: 1 << 4})
	g := graph.CanonicalizeList(sp, el)
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("emit panic did not propagate")
			}
		}()
		n := 0
		CacheAwareParallel(sp, g, 1, Exec{Workers: 4}, func(_, _, _ uint32) {
			n++
			if n == 10 {
				panic("emit failure")
			}
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before the panic, %d after", before, runtime.NumGoroutine())
}

// TestParallelListerAbsorbsWorkerIOs: ListTriangles must leave the full
// cost of both engine passes — coordinator plus workers — on the Space,
// so listing experiments that measure through sp.Stats() see it. Its
// first pass is exactly a cold engine run (coordinator C, workers W), and
// the second pass's workers run on cold shards again (W once more), so
// the listing costs at least C + 2W.
func TestParallelListerAbsorbsWorkerIOs(t *testing.T) {
	el := graph.GNM(200, 1600, 4)
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}

	ref := extmem.NewSpace(cfg)
	gr := graph.CanonicalizeList(ref, el)
	ref.DropCache()
	ref.ResetStats()
	var n uint64
	_, ws, err := CacheAwareParallel(ref, gr, 9, Exec{Workers: 2}, graph.Counter(&n))
	if err != nil {
		t.Fatal(err)
	}
	coord := ref.Stats().IOs()
	var workerIOs uint64
	for _, w := range ws {
		workerIOs += w.IOs()
	}

	sp := extmem.NewSpace(cfg)
	g := graph.CanonicalizeList(sp, el)
	sp.DropCache()
	sp.ResetStats()
	if _, _, err := ListTriangles(sp, g, 9, Exec{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if got := sp.Stats().IOs(); got < coord+2*workerIOs {
		t.Errorf("listing left %d I/Os on the Space; its two passes cost at least %d (coordinator %d, workers 2×%d)",
			got, coord+2*workerIOs, coord, workerIOs)
	}
}

// TestParallelWorkerStatsBreakdown: worker stats must be non-trivial and
// sum (with the coordinator's) to the same totals at every worker count —
// the property Result.WorkerStats exposes publicly.
func TestParallelWorkerStatsBreakdown(t *testing.T) {
	el := graph.GNM(300, 3000, 9)
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}
	sp := extmem.NewSpace(cfg)
	g := graph.CanonicalizeList(sp, el)
	var n uint64
	_, ws, _ := CacheAwareParallel(sp, g, 4, Exec{Workers: 3}, graph.Counter(&n))
	if len(ws) == 0 {
		t.Fatal("no worker stats returned")
	}
	var reads uint64
	for _, w := range ws {
		reads += w.BlockReads
	}
	if reads == 0 {
		t.Error("workers report zero block reads on an out-of-core input")
	}
}
