package repro_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro"
)

// The basic use: build a handle over an edge list and enumerate its
// triangles.
func ExampleBuild() {
	edges := [][2]uint32{
		{0, 1}, {1, 2}, {0, 2}, // triangle 0-1-2
		{2, 3}, {3, 4}, {2, 4}, // triangle 2-3-4
		{4, 5}, // dangling edge
	}
	g, err := repro.Build(repro.FromEdges(edges), repro.Options{})
	if err != nil {
		panic(err)
	}
	defer g.Close()
	var found [][3]uint32
	res, err := g.TrianglesFunc(context.Background(), repro.Query{}, func(a, b, c uint32) {
		found = append(found, [3]uint32{a, b, c})
	})
	if err != nil {
		panic(err)
	}
	sort.Slice(found, func(i, j int) bool { return found[i][0] < found[j][0] })
	for _, t := range found {
		fmt.Println(t[0], t[1], t[2])
	}
	fmt.Println("triangles:", res.Triangles)
	// Output:
	// 0 1 2
	// 2 3 4
	// triangles: 2
}

// Counting the triangles of a generated workload on an explicit machine:
// a nil emit counts only.
func ExampleGraph_TrianglesFunc() {
	g, err := repro.Build(repro.FromSpec("clique:n=20"), repro.Options{
		MemoryWords: 1 << 12,
		BlockWords:  1 << 5,
	})
	if err != nil {
		panic(err)
	}
	defer g.Close()
	res, err := g.TrianglesFunc(context.Background(), repro.Query{Algorithm: repro.CacheOblivious, Seed: 7}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Triangles) // C(20,3)
	// Output:
	// 1140
}

// Choosing algorithms by name, e.g. from a CLI flag.
func ExampleParseAlgorithm() {
	alg, err := repro.ParseAlgorithm("deterministic")
	if err != nil {
		panic(err)
	}
	g, err := repro.Build(repro.FromSpec("gnm:n=64,m=256"), repro.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	defer g.Close()
	res, err := g.TrianglesFunc(context.Background(), repro.Query{Algorithm: alg}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(alg, res.Triangles > 0 || res.Triangles == 0)
	// Output:
	// deterministic true
}

// Durability round trip: Build freezes a canonical on-disk image, Open
// adopts it in O(scan(V)) I/Os — no re-canonicalization — and queries
// against the reopened handle emit exactly what the original did.
func ExampleOpen() {
	dir, err := os.MkdirTemp("", "repro-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "g.img")

	// Build durably (Options.DiskPath), then release the handle.
	g, err := repro.Build(repro.FromSpec("clique:n=16"), repro.Options{DiskPath: path})
	if err != nil {
		panic(err)
	}
	bres, err := g.TrianglesFunc(context.Background(), repro.Query{}, func(a, b, c uint32) {})
	if err != nil {
		panic(err)
	}
	g.Close()

	// Open adopts the frozen image without rebuilding it.
	g2, info, err := repro.Open(path, repro.Options{})
	if err != nil {
		panic(err)
	}
	defer g2.Close()
	rres, err := g2.TrianglesFunc(context.Background(), repro.Query{}, func(a, b, c uint32) {})
	if err != nil {
		panic(err)
	}
	fmt.Println("generation:", info.Generation, "replayed:", info.Replayed)
	fmt.Println("same count after reopen:", bres.Triangles == rres.Triangles)
	fmt.Println("canonicalization IOs on reopen:", g2.CanonIOs())
	// Output:
	// generation: 0 replayed: 0
	// same count after reopen: true
	// canonicalization IOs on reopen: 0
}

// Batched mutation: Update merges a delta into a new immutable
// generation whose image — and therefore every query emission and I/O
// statistic — is byte-identical to a fresh Build of the updated edge
// set.
func ExampleGraph_Update() {
	g, err := repro.Build(repro.FromEdges([][2]uint32{
		{0, 1}, {1, 2}, // a path: no triangle yet
	}), repro.Options{})
	if err != nil {
		panic(err)
	}
	defer g.Close()

	res, err := g.Update(context.Background(), repro.Delta{
		Add:    []repro.Edge{{0, 2}, {2, 3}},
		Remove: []repro.Edge{{9, 10}}, // absent: a counted-as-zero no-op
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("generation:", res.Generation)
	fmt.Println("added:", res.Added, "removed:", res.Removed)
	qres, err := g.TrianglesFunc(context.Background(), repro.Query{}, func(a, b, c uint32) {})
	if err != nil {
		panic(err)
	}
	fmt.Println("triangles now:", qres.Triangles)
	// Output:
	// generation: 1
	// added: 2 removed: 0
	// triangles now: 1
}

// Query.Limit ends enumeration cleanly after exactly Limit emissions.
// Because the emission order is deterministic (fixed seed, any worker
// count), the limited prefix is a well-defined object — it is what the
// trienumd daemon's paginated cursors index into.
func ExampleQuery() {
	g, err := repro.Build(repro.FromSpec("clique:n=10"), repro.Options{})
	if err != nil {
		panic(err)
	}
	defer g.Close()

	q := repro.Query{Seed: 1, Limit: 4}
	var got [][3]uint32
	res, err := g.TrianglesFunc(context.Background(), q, func(a, b, c uint32) {
		got = append(got, [3]uint32{a, b, c})
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("delivered:", len(got), "of", 120) // C(10,3) without the limit
	fmt.Println("result counts the delivered prefix:", res.Triangles)
	// Output:
	// delivered: 4 of 120
	// result counts the delivered prefix: 4
}

// All algorithms agree on every input; the randomized ones are
// deterministic in their seed.
func ExampleAlgorithms() {
	g, err := repro.Build(repro.FromSpec("planted:n=100,m=300,k=8"), repro.Options{Seed: 5})
	if err != nil {
		panic(err)
	}
	defer g.Close()
	counts := map[uint64]bool{}
	for _, alg := range repro.Algorithms() {
		res, err := g.TrianglesFunc(context.Background(), repro.Query{Algorithm: alg, Seed: 3}, nil)
		if err != nil {
			panic(err)
		}
		counts[res.Triangles] = true
	}
	fmt.Println("distinct counts across algorithms:", len(counts))
	// Output:
	// distinct counts across algorithms: 1
}
