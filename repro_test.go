package repro

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
)

// buildQuery builds a handle over edges and runs one TrianglesFunc query
// on it: the whole pipeline, canonicalization included, in one call.
func buildQuery(edges [][2]uint32, opts Options, q Query, emit func(a, b, c uint32)) (Result, error) {
	g, err := Build(FromEdges(edges), opts)
	if err != nil {
		return Result{}, err
	}
	defer g.Close()
	return g.TrianglesFunc(nil, q, emit)
}

// sumWorkerStats folds the scheduling-dependent per-worker vector into
// its scheduling-invariant aggregate (transfer and word counters only;
// peaks are per-shard high-water marks).
func sumWorkerStats(r Result) IOStats {
	var sum IOStats
	for _, w := range r.WorkerStats {
		sum.BlockReads += w.BlockReads
		sum.BlockWrites += w.BlockWrites
		sum.WordReads += w.WordReads
		sum.WordWrites += w.WordWrites
	}
	return sum
}

func TestEnumerateAllAlgorithmsAgree(t *testing.T) {
	edges, err := Generate("planted:n=120,m=600,k=12", 3)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	var wantSet []graph.Triple
	{
		var el graph.EdgeList
		for _, e := range edges {
			el.Add(e[0], e[1])
		}
		o := graph.NewOracle(el)
		want = o.Count()
		wantSet = o.Triples()
	}
	for _, alg := range Algorithms() {
		for _, workers := range []int{1, 4} {
			var got []graph.Triple
			res, err := buildQuery(edges, Options{MemoryWords: 1 << 12, BlockWords: 1 << 5, Workers: workers}, Query{Algorithm: alg, Seed: 9},
				func(a, b, c uint32) { got = append(got, graph.Triple{V1: a, V2: b, V3: c}) })
			if err != nil {
				t.Fatalf("%v/workers=%d: %v", alg, workers, err)
			}
			if res.Triangles != want {
				t.Errorf("%v/workers=%d: %d triangles, want %d", alg, workers, res.Triangles, want)
			}
			sort.Slice(got, func(i, j int) bool {
				a, b := got[i], got[j]
				return a.V1 < b.V1 || (a.V1 == b.V1 && (a.V2 < b.V2 || (a.V2 == b.V2 && a.V3 < b.V3)))
			})
			if len(got) != len(wantSet) {
				t.Fatalf("%v/workers=%d: emitted %d, want %d", alg, workers, len(got), len(wantSet))
			}
			for i := range got {
				if got[i] != wantSet[i] {
					t.Fatalf("%v/workers=%d: triple %d = %v, want %v", alg, workers, i, got[i], wantSet[i])
				}
			}
			if res.Stats.IOs() == 0 {
				t.Errorf("%v/workers=%d: zero I/Os reported for out-of-core input", alg, workers)
			}
		}
	}
}

func TestCountOnly(t *testing.T) {
	edges, _ := Generate("clique:n=30", 0)
	res, err := buildQuery(edges, Options{}, Query{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(30 * 29 * 28 / 6); res.Triangles != want {
		t.Errorf("K30: %d triangles, want %d", res.Triangles, want)
	}
	if res.Vertices != 30 || res.Edges != 435 {
		t.Errorf("V=%d E=%d", res.Vertices, res.Edges)
	}
}

// TestCountMatchesEnumerate: a nil-emit (count-only) query reports the
// same Result as one that delivers every triangle.
func TestCountMatchesEnumerate(t *testing.T) {
	edges, _ := Generate("gnm:n=150,m=1200", 3)
	g, err := Build(FromEdges(edges), Options{MemoryWords: 1 << 10, BlockWords: 1 << 5})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	q := Query{Seed: 5}
	a, err := g.TrianglesFunc(nil, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.TrianglesFunc(nil, q, func(_, _, _ uint32) {})
	if err != nil {
		t.Fatal(err)
	}
	// Individual WorkerStats entries are scheduling-dependent (visible
	// under -cpu > 1); compare their scheduling-invariant aggregate.
	if x, y := sumWorkerStats(a), sumWorkerStats(b); x != y {
		t.Errorf("summed WorkerStats differ: count-only %+v, emitting %+v", x, y)
	}
	a.WorkerStats, b.WorkerStats = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("count-only %+v differs from emitting %+v", a, b)
	}
}

func TestEnumerateValidatesConfig(t *testing.T) {
	edges := [][2]uint32{{0, 1}}
	if _, err := buildQuery(edges, Options{BlockWords: 100, MemoryWords: 100000}, Query{}, nil); err == nil {
		t.Error("non-power-of-two block accepted")
	}
	if _, err := buildQuery(edges, Options{BlockWords: 128, MemoryWords: 1000}, Query{}, nil); err == nil {
		t.Error("short cache accepted")
	}
}

func TestEnumerateIgnoresJunkEdges(t *testing.T) {
	edges := [][2]uint32{{1, 2}, {2, 1}, {3, 3}, {1, 2}, {2, 3}, {1, 3}}
	res, err := buildQuery(edges, Options{}, Query{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 1 || res.Edges != 3 {
		t.Errorf("got %d triangles over %d edges, want 1 over 3", res.Triangles, res.Edges)
	}
}

func TestFileBackedEnumeration(t *testing.T) {
	edges, _ := Generate("gnm:n=200,m=2000", 5)
	opts := Options{MemoryWords: 1 << 10, BlockWords: 1 << 5}
	mem, err := buildQuery(edges, opts, Query{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts.DiskPath = filepath.Join(t.TempDir(), "em.bin")
	disk, err := buildQuery(edges, opts, Query{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Triangles != disk.Triangles {
		t.Errorf("file-backed run found %d triangles, memory-backed %d", disk.Triangles, mem.Triangles)
	}
	if mem.Stats.IOs() != disk.Stats.IOs() {
		t.Errorf("I/O counts differ between backends: %d vs %d", mem.Stats.IOs(), disk.Stats.IOs())
	}
}

func TestGenerateSpecs(t *testing.T) {
	specs := []string{
		"clique:n=10", "gnm:n=50,m=100", "powerlaw:n=60,m=120,beta=2.5",
		"sells:ns=10,nb=5,nt=5,per=2,avail=0.5", "bipartite:n1=10,n2=10,m=30",
		"grid:r=5,c=5", "planted:n=40,m=60,k=6", "rmat:scale=6,m=100",
	}
	for _, s := range specs {
		edges, err := Generate(s, 1)
		if err != nil {
			t.Errorf("%s: %v", s, err)
		}
		if len(edges) == 0 {
			t.Errorf("%s: empty graph", s)
		}
	}
	if _, err := Generate("nope:n=1", 0); err == nil {
		t.Error("unknown generator accepted")
	}
	if _, err := Generate("", 0); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Generate("gnm:n", 0); err == nil {
		t.Error("malformed parameter accepted")
	}
}

func TestEdgeFileRoundTrip(t *testing.T) {
	edges, _ := Generate("gnm:n=100,m=500", 7)
	var buf bytes.Buffer
	if err := WriteEdgeFile(&buf, edges); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(edges) {
		t.Fatalf("%d edges back, want %d", len(back), len(edges))
	}
	for i := range edges {
		if back[i] != edges[i] {
			t.Fatalf("edge %d mismatch", i)
		}
	}
	// Corrupt magic.
	raw := buf.Bytes()
	var buf2 bytes.Buffer
	if err := WriteEdgeFile(&buf2, edges); err != nil {
		t.Fatal(err)
	}
	b2 := buf2.Bytes()
	b2[0] ^= 0xff
	if _, err := ReadEdgeFile(bytes.NewReader(b2)); err == nil {
		t.Error("corrupted magic accepted")
	}
	_ = raw
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip failed for %v", a)
		}
	}
	if _, err := ParseAlgorithm("quantum"); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if s := Algorithm(99).String(); s == "" {
		t.Error("unknown algorithm has empty name")
	}
}

func TestWorkersDeterminism(t *testing.T) {
	// The public engine contract: for every algorithm and Workers ∈
	// {1, 2, 8}, the emission stream is byte-identical and the aggregated
	// block-I/O totals are equal. Includes a skewed graph so the parallel
	// high-degree path runs.
	specs := []string{"powerlaw:n=500,m=4000,beta=2.0", "gnm:n=200,m=2000", "planted:n=150,m=800,k=14"}
	for _, spec := range specs {
		edges, err := Generate(spec, 21)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range Algorithms() {
			run := func(workers int) ([]graph.Triple, Result) {
				var got []graph.Triple
				res, err := buildQuery(edges, Options{MemoryWords: 1 << 10, BlockWords: 1 << 5, Workers: workers},
					Query{Algorithm: alg, Seed: 4}, func(a, b, c uint32) { got = append(got, graph.Triple{V1: a, V2: b, V3: c}) })
				if err != nil {
					t.Fatalf("%s/%v/workers=%d: %v", spec, alg, workers, err)
				}
				return got, res
			}
			base, baseRes := run(1)
			for _, workers := range []int{2, 8} {
				got, res := run(workers)
				if len(got) != len(base) {
					t.Fatalf("%s/%v: workers=%d emitted %d, workers=1 emitted %d", spec, alg, workers, len(got), len(base))
				}
				for i := range got {
					if got[i] != base[i] {
						t.Fatalf("%s/%v: workers=%d emission %d is %v, workers=1 emitted %v", spec, alg, workers, i, got[i], base[i])
					}
				}
				if res.Stats.BlockReads != baseRes.Stats.BlockReads || res.Stats.BlockWrites != baseRes.Stats.BlockWrites {
					t.Errorf("%s/%v: workers=%d I/Os (r=%d w=%d) != workers=1 (r=%d w=%d)", spec, alg, workers,
						res.Stats.BlockReads, res.Stats.BlockWrites, baseRes.Stats.BlockReads, baseRes.Stats.BlockWrites)
				}
			}
		}
	}
}

func TestWorkerStatsSumIntoTotals(t *testing.T) {
	edges, _ := Generate("gnm:n=400,m=4000", 8)
	seq, err := buildQuery(edges, Options{MemoryWords: 1 << 10, BlockWords: 1 << 5, Workers: 1}, Query{Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := buildQuery(edges, Options{MemoryWords: 1 << 10, BlockWords: 1 << 5, Workers: 4}, Query{Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if par.Workers != 4 || len(par.WorkerStats) == 0 {
		t.Fatalf("Workers=%d WorkerStats=%d entries", par.Workers, len(par.WorkerStats))
	}
	// Per-worker counts must account for the difference between the run
	// total and the coordinator's share, i.e. sum consistently: the same
	// aggregate as the 1-worker run.
	if par.Stats.IOs() != seq.Stats.IOs() {
		t.Errorf("aggregate IOs %d (4 workers) != %d (1 worker)", par.Stats.IOs(), seq.Stats.IOs())
	}
	var workerIOs uint64
	for _, w := range par.WorkerStats {
		workerIOs += w.IOs()
	}
	if workerIOs == 0 || workerIOs > par.Stats.IOs() {
		t.Errorf("worker IOs %d outside (0, total %d]", workerIOs, par.Stats.IOs())
	}
}

func TestDeterministicSeedsMatch(t *testing.T) {
	edges, _ := Generate("gnm:n=150,m=1500", 11)
	opts := Options{MemoryWords: 1 << 10, BlockWords: 1 << 5}
	q := Query{Algorithm: CacheAware, Seed: 123}
	a, err := buildQuery(edges, opts, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildQuery(edges, opts, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats || a.Triangles != b.Triangles || a.X != b.X {
		t.Error("identical configs gave different results")
	}
}
