package repro

import (
	"testing"
)

// TestWorkerStatsSchedulingContract pins the documented semantics of
// Result.WorkerStats under the dynamic task schedulers (the shared
// task queue of the cache-aware engine and the parallelized oblivious
// recursion): individual entries — and even their count — depend on
// which worker won which task, but the entry-wise sum is invariant
// across runs and worker counts and is contained in the run's Stats.
func TestWorkerStatsSchedulingContract(t *testing.T) {
	edges, err := Generate("powerlaw:n=300,m=2400,beta=2.1", 21)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(FromEdges(edges), Options{MemoryWords: 1 << 10, BlockWords: 1 << 5})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for _, alg := range []Algorithm{CacheAware, CacheOblivious, Deterministic} {
		var ref *IOStats
		for _, workers := range []int{1, 2, 4} {
			// Two runs per worker count: the second may assign tasks to
			// different workers, which must not move the aggregate.
			for run := 0; run < 2; run++ {
				res, err := g.TrianglesFunc(nil, Query{Algorithm: alg, Seed: 6, Workers: workers}, nil)
				if err != nil {
					t.Fatalf("%v/workers=%d: %v", alg, workers, err)
				}
				if res.Workers != workers {
					t.Errorf("%v/workers=%d: resolved Workers = %d", alg, workers, res.Workers)
				}
				// The engine engages at most one worker per task, so the
				// breakdown never grows past the cap (it may fall short of
				// it on small inputs).
				if len(res.WorkerStats) > workers {
					t.Errorf("%v/workers=%d: %d WorkerStats entries exceed the cap", alg, workers, len(res.WorkerStats))
				}
				sum := sumWorkerStats(res)
				if ref == nil {
					r := sum
					ref = &r
				} else if sum != *ref {
					t.Errorf("%v/workers=%d run %d: summed WorkerStats %+v, want the invariant %+v", alg, workers, run, sum, *ref)
				}
				// "Included in Stats": the parallel phases' transfers are a
				// subset of the run's total accounting.
				if sum.BlockReads > res.Stats.BlockReads || sum.BlockWrites > res.Stats.BlockWrites ||
					sum.WordReads > res.Stats.WordReads || sum.WordWrites > res.Stats.WordWrites {
					t.Errorf("%v/workers=%d: summed WorkerStats %+v exceeds Stats %+v", alg, workers, sum, res.Stats)
				}
			}
		}
		// Native execution counts no transfers, so there is no per-worker
		// breakdown to report; the contract is nil, not empty.
		res, err := g.TrianglesFunc(nil, Query{Algorithm: alg, Seed: 6, Workers: 4, Mode: ModeNative}, nil)
		if err != nil {
			t.Fatalf("%v/native: %v", alg, err)
		}
		if res.WorkerStats != nil {
			t.Errorf("%v/native: WorkerStats = %d entries, want nil", alg, len(res.WorkerStats))
		}
	}
}

// TestWorkerStatsSection6Contract pins the same contract for the Section 6
// queries, whose color tuples run on the same worker pool: the resolved
// Workers is reported, the breakdown never outgrows it, its sum is
// invariant across runs and worker counts and is included in Stats, and
// a native run reports nil.
func TestWorkerStatsSection6Contract(t *testing.T) {
	edges, err := Generate("powerlaw:n=200,m=1200,beta=2.1", 21)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(FromEdges(edges), Options{MemoryWords: 1 << 8, BlockWords: 1 << 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	queries := []struct {
		name string
		run  func(q Query) (Result, error)
	}{
		{"cliques/k=4", func(q Query) (Result, error) { return g.CliquesFunc(nil, 4, q, nil) }},
		{"match/diamond", func(q Query) (Result, error) { return g.MatchFunc(nil, PatternDiamond, q, nil) }},
	}
	for _, qc := range queries {
		var ref *IOStats
		for _, workers := range []int{1, 2, 4} {
			for run := 0; run < 2; run++ {
				res, err := qc.run(Query{Seed: 6, Workers: workers})
				if err != nil {
					t.Fatalf("%s/workers=%d: %v", qc.name, workers, err)
				}
				if res.Colors < 2 {
					t.Fatalf("%s: %d colors; the query must split into color tuples", qc.name, res.Colors)
				}
				if res.Workers != workers {
					t.Errorf("%s/workers=%d: resolved Workers = %d", qc.name, workers, res.Workers)
				}
				if len(res.WorkerStats) == 0 || len(res.WorkerStats) > workers {
					t.Errorf("%s/workers=%d: %d WorkerStats entries, want 1 to %d", qc.name, workers, len(res.WorkerStats), workers)
				}
				sum := sumWorkerStats(res)
				if ref == nil {
					r := sum
					ref = &r
				} else if sum != *ref {
					t.Errorf("%s/workers=%d run %d: summed WorkerStats %+v, want the invariant %+v", qc.name, workers, run, sum, *ref)
				}
				if sum.BlockReads > res.Stats.BlockReads || sum.BlockWrites > res.Stats.BlockWrites ||
					sum.WordReads > res.Stats.WordReads || sum.WordWrites > res.Stats.WordWrites {
					t.Errorf("%s/workers=%d: summed WorkerStats %+v exceeds Stats %+v", qc.name, workers, sum, res.Stats)
				}
			}
		}
		if ref.BlockReads == 0 {
			t.Errorf("%s: the workers read no blocks", qc.name)
		}
		res, err := qc.run(Query{Seed: 6, Workers: 4, Mode: ModeNative})
		if err != nil {
			t.Fatalf("%s/native: %v", qc.name, err)
		}
		if res.WorkerStats != nil {
			t.Errorf("%s/native: WorkerStats = %d entries, want nil", qc.name, len(res.WorkerStats))
		}
	}
}
