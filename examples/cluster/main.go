// Scatter–gather over a color-partitioned cluster: this example builds
// a graph, partitions it into two sub-images by color range
// (repro.Partition), serves each sub-image from its own in-process
// shard daemon on a loopback listener — exactly what
// `trienumd -shard cluster.json -shard-index i` does — and dials a
// coordinator over both.
//
// It self-checks the cluster contract end to end and exits non-zero on
// any violation:
//
//   - the gathered triangle stream is byte-identical to the
//     single-process ordered query of the full graph;
//   - the gathered stream and its aggregate simulated I/Os are
//     invariant in the Workers value;
//   - after a routed update (two-phase commit across the shards), the
//     gathered stream equals the ordered query of the updated graph.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

func main() {
	const spec = "gnm:n=300,m=1800"
	g, err := repro.Build(repro.FromSpec(spec), repro.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()

	// Partition into two shards (the graph is small, so Partition picks
	// four colors: shard 0 owns colors {0,1} and shard 1 owns {2,3}); the
	// sub-images and cluster.json land in a temp dir.
	dir, err := os.MkdirTemp("", "cluster-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	pr, err := repro.Partition(context.Background(), g, repro.PartitionOptions{Dir: dir, Shards: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned %s into %d shards (%d colors):\n", spec, len(pr.Shards), pr.Colors)
	for _, sh := range pr.Shards {
		fmt.Printf("  shard %d: colors [%d,%d), %d edges\n", sh.Index, sh.LoColor, sh.HiColor, sh.Edges)
	}

	// Boot one shard daemon per sub-image, the way trienumd -shard
	// does: open the durable sub-image, serve the shard endpoints.
	man, err := cluster.Load(pr.ManifestPath)
	if err != nil {
		log.Fatal(err)
	}
	urls := make([]string, len(man.Shards))
	for i := range man.Shards {
		sg, _, err := repro.Open(man.ImagePath(pr.ManifestPath, i), repro.Options{
			MemoryWords: man.MemoryWords,
			BlockWords:  man.BlockWords,
		})
		if err != nil {
			log.Fatal(err)
		}
		srv := serve.New(serve.Config{})
		if err := srv.ServeShard(man, i, sg); err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		urls[i] = "http://" + ln.Addr().String()
	}

	// Dial the coordinator and gather a query across both shards.
	cl, err := repro.DialCluster(context.Background(), pr.ManifestPath, urls, repro.DialOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	q := repro.Query{Seed: 5}
	gathered, cres := gather(cl, q)
	want, _ := orderedRef(g, q)
	if !bytes.Equal(gathered, want) {
		log.Fatal("gathered stream is not byte-identical to the single-process ordered query")
	}
	par, pres := gather(cl, repro.Query{Seed: 5, Workers: 4})
	if !bytes.Equal(par, gathered) || pres.Stats != cres.Stats {
		log.Fatal("the gathered stream or its aggregate IOs depend on the Workers value")
	}
	fmt.Printf("gathered %d triangles over %d shards: byte-identical to the ordered single-process stream\n",
		cres.Matches, cl.Shards())
	fmt.Printf("  %d subproblems, aggregate stats %+v\n", cres.Subproblems, cres.Stats)

	// Route an update through two-phase commit and re-check against the
	// same delta applied to the in-process graph.
	delta := repro.Delta{Add: [][2]uint32{{7, 9}, {9, 11}, {1, 299}}, Remove: [][2]uint32{{0, 1}}}
	ur, err := cl.Update(context.Background(), delta)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := g.Update(context.Background(), delta); err != nil {
		log.Fatal(err)
	}
	gathered, cres = gather(cl, q)
	want, _ = orderedRef(g, q)
	if !bytes.Equal(gathered, want) {
		log.Fatal("after the routed update, the gathered stream diverges from the updated graph")
	}
	fmt.Printf("routed update installed epoch %d (+%d -%d edges): gathered stream still exact (%d triangles)\n",
		ur.Epoch, ur.Added, ur.Removed, cres.Matches)
}

// gather streams a cluster triangle query, wire-encoded like the
// daemon's NDJSON data lines.
func gather(cl *repro.Cluster, q repro.Query) ([]byte, repro.ClusterResult) {
	var buf []byte
	cres, err := cl.TrianglesFunc(context.Background(), q, func(a, b, c uint32) {
		buf = serve.AppendEmission(buf, []uint32{a, b, c})
	})
	if err != nil {
		log.Fatal(err)
	}
	return buf, cres
}

// orderedRef runs the single-process reference: the same query in the
// canonical global order, encoded identically.
func orderedRef(g *repro.Graph, q repro.Query) ([]byte, repro.Result) {
	var buf []byte
	var res repro.Result
	q.Ordered = true
	q.Result = &res
	if _, err := g.TrianglesFunc(context.Background(), q, func(a, b, c uint32) {
		buf = serve.AppendEmission(buf, []uint32{a, b, c})
	}); err != nil {
		log.Fatal(err)
	}
	return buf, res
}
