package repro

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
)

// flatten3 collects a triangle stream as flattened tuples.
func collectTriangles(t *testing.T, g *Graph, q Query) ([]uint32, Result) {
	t.Helper()
	var flat []uint32
	var res Result
	q.Result = &res
	if _, err := g.TrianglesFunc(context.Background(), q, func(a, b, c uint32) {
		flat = append(flat, a, b, c)
	}); err != nil {
		t.Fatalf("TrianglesFunc: %v", err)
	}
	return flat, res
}

// TestOrderedTriangles pins Query.Ordered as sorted(plain stream): the
// ordered stream is exactly the plain stream's tuples in canonical
// lexicographic order, its statistics equal the plain run's, and both
// are invariant in Workers.
func TestOrderedTriangles(t *testing.T) {
	g, err := Build(FromSpec("gnm:n=300,m=1600"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	plain, plainRes := collectTriangles(t, g, Query{Seed: 11})
	want := append([]uint32{}, plain...)
	cluster.SortTuples(want, 3)

	var ref []uint32
	for _, workers := range []int{1, 2, 4} {
		got, res := collectTriangles(t, g, Query{Seed: 11, Ordered: true, Workers: workers})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: ordered stream is not the sorted plain stream", workers)
		}
		if res.Stats != plainRes.Stats {
			t.Fatalf("workers=%d: ordered Stats %+v != plain Stats %+v", workers, res.Stats, plainRes.Stats)
		}
		if res.Triangles != plainRes.Triangles {
			t.Fatalf("workers=%d: ordered count %d != plain %d", workers, res.Triangles, plainRes.Triangles)
		}
		if ref == nil {
			ref = got
		} else if !reflect.DeepEqual(ref, got) {
			t.Fatalf("ordered stream varies with Workers")
		}
	}
}

// TestOrderedLimit pins the query driver's contract for every query
// kind on both machines: a limit on an ordered query delivers the first
// Limit tuples of the sorted stream and counts them, while the producer
// still enumerates fully (Stats equal the unlimited ordered run's); a
// native run reports zero Stats and nil WorkerStats; and Query.Result
// receives the Result the call returns.
func TestOrderedLimit(t *testing.T) {
	g, err := Build(FromSpec("planted:n=200,m=1400,k=12"), Options{MemoryWords: 1 << 8, BlockWords: 1 << 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	type runFunc func(q Query, emit func([]uint32)) (Result, error)
	kinds := []struct {
		name      string
		triangles bool
		run       runFunc
	}{
		{"triangles", true, func(q Query, emit func([]uint32)) (Result, error) {
			return g.TrianglesFunc(nil, q, func(a, b, c uint32) { emit([]uint32{a, b, c}) })
		}},
		{"cliques4", false, func(q Query, emit func([]uint32)) (Result, error) {
			return g.CliquesFunc(nil, 4, q, emit)
		}},
		{"diamond", false, func(q Query, emit func([]uint32)) (Result, error) {
			return g.MatchFunc(nil, PatternDiamond, q, emit)
		}},
	}
	collect := func(t *testing.T, run runFunc, q Query) ([]uint32, Result) {
		t.Helper()
		var flat []uint32
		var got Result
		q.Result = &got
		res, err := run(q, func(vs []uint32) { flat = append(flat, vs...) })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("Query.Result received %+v, the call returned %+v", got, res)
		}
		return flat, res
	}
	const limit = 5
	for _, kind := range kinds {
		for mode, modeName := range []string{ModeSimulated: "simulated", ModeNative: "native"} {
			mode := ExecMode(mode)
			t.Run(kind.name+"/"+modeName, func(t *testing.T) {
				q := Query{Seed: 3, Mode: mode, Ordered: true}
				full, fullRes := collect(t, kind.run, q)
				if fullRes.Matches < 8 {
					t.Fatalf("test graph too sparse: %d matches", fullRes.Matches)
				}
				k := len(full) / int(fullRes.Matches)
				q.Limit = limit
				lim, limRes := collect(t, kind.run, q)
				if !reflect.DeepEqual(lim, full[:k*limit]) {
					t.Fatalf("limited ordered stream is not a prefix of the ordered stream")
				}
				wantTriangles := uint64(0)
				if kind.triangles {
					wantTriangles = limit
				}
				if limRes.Matches != limit || limRes.Triangles != wantTriangles {
					t.Fatalf("limited Result Matches/Triangles = %d/%d, want %d/%d", limRes.Matches, limRes.Triangles, limit, wantTriangles)
				}
				if limRes.Stats != fullRes.Stats {
					t.Fatalf("ordered+limit Stats %+v != full Stats %+v (producer must run to completion)", limRes.Stats, fullRes.Stats)
				}
				for _, res := range []Result{fullRes, limRes} {
					if mode == ModeNative && (res.Stats != (IOStats{}) || res.WorkerStats != nil) {
						t.Fatalf("native run reports Stats %+v and %d WorkerStats, want zero and nil", res.Stats, len(res.WorkerStats))
					}
					if mode == ModeSimulated && res.Stats == (IOStats{}) {
						t.Fatal("simulated run reports zero Stats")
					}
				}
			})
		}
	}
}

// TestOrderedMatch: the ordered Match stream is the plain stream's
// embeddings normalized (Pattern.Normalize) and sorted.
func TestOrderedMatch(t *testing.T) {
	g, err := Build(FromSpec("gnm:n=120,m=700"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for _, p := range []*Pattern{PatternDiamond, PatternPath3} {
		k := p.K()
		var plain []uint32
		if _, err := g.MatchFunc(context.Background(), p, Query{Seed: 2}, func(vs []uint32) {
			plain = append(plain, vs...)
		}); err != nil {
			t.Fatal(err)
		}
		want := append([]uint32{}, plain...)
		for i := 0; i+k <= len(want); i += k {
			p.Normalize(want[i : i+k])
		}
		cluster.SortTuples(want, k)

		var got []uint32
		if _, err := g.MatchFunc(context.Background(), p, Query{Seed: 2, Ordered: true}, func(vs []uint32) {
			got = append(got, vs...)
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ordered match stream is not the normalized sorted plain stream", p.Name())
		}
	}

	// Cliques: already canonical per emission; ordered = sorted stream.
	var plain []uint32
	if _, err := g.CliquesFunc(context.Background(), 4, Query{Seed: 2}, func(vs []uint32) {
		plain = append(plain, vs...)
	}); err != nil {
		t.Fatal(err)
	}
	cluster.SortTuples(plain, 4)
	var got []uint32
	if _, err := g.CliquesFunc(context.Background(), 4, Query{Seed: 2, Ordered: true}, func(vs []uint32) {
		got = append(got, vs...)
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Fatal("ordered cliques stream is not the sorted plain stream")
	}
}

// TestEdgesFunc pins the export primitive: every deduplicated edge
// exactly once, u < v in original ids, deterministic sequence, and no
// simulated I/O (native session).
func TestEdgesFunc(t *testing.T) {
	edges := [][2]uint32{{5, 1}, {1, 5}, {2, 9}, {9, 4}, {4, 2}, {7, 7}, {3, 8}}
	g, err := Build(FromEdges(edges), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	var got [][2]uint32
	if err := g.EdgesFunc(context.Background(), func(u, v uint32) {
		if u >= v {
			t.Fatalf("EdgesFunc emitted (%d, %d), want u < v", u, v)
		}
		got = append(got, [2]uint32{u, v})
	}); err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != g.NumEdges() {
		t.Fatalf("EdgesFunc emitted %d edges, NumEdges() = %d", len(got), g.NumEdges())
	}
	want := [][2]uint32{{1, 5}, {2, 4}, {2, 9}, {3, 8}, {4, 9}}
	sort.Slice(got, func(i, j int) bool {
		if got[i][0] != got[j][0] {
			return got[i][0] < got[j][0]
		}
		return got[i][1] < got[j][1]
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EdgesFunc edge set = %v, want %v", got, want)
	}

	// A second pass is identical (deterministic sequence).
	var again [][2]uint32
	if err := g.EdgesFunc(nil, func(u, v uint32) { again = append(again, [2]uint32{u, v}) }); err != nil {
		t.Fatal(err)
	}
	sort.Slice(again, func(i, j int) bool {
		if again[i][0] != again[j][0] {
			return again[i][0] < again[j][0]
		}
		return again[i][1] < again[j][1]
	})
	if !reflect.DeepEqual(again, got) {
		t.Fatal("EdgesFunc varies between calls")
	}
}
