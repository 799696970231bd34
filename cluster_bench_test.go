package repro_test

import (
	"bytes"
	"testing"

	"repro"
)

// BenchmarkE23Cluster measures the scatter–gather cluster layer (E23 in
// EXPERIMENTS.md): one triangle query gathered over two real HTTP shard
// servers, against the single-process ordered run of the same graph it
// must be byte-identical to. Every iteration re-checks the identity —
// the oracle that makes the numbers meaningful — and fails on any
// divergence of the stream or of the deterministic aggregates.
//
// Reported metrics: clusterIOs (the placement-invariant cluster-wide
// aggregate: the block transfers of every owned color tuple, solved in
// place on a cold machine of the manifest's size — writing the tuple's
// color-pair buckets plus running the tuple solver on each ordering —
// summed over shards) and singleIOs (the one-process ordered query's
// block transfers) — the ratio is the I/O price of executing the
// decomposition as independent exactly-accounted sub-instances; plus
// subproblems and matches. Wall-clock includes the HTTP hop and the
// k-way merge.
func BenchmarkE23Cluster(b *testing.B) {
	g, err := repro.Build(repro.FromSpec("gnm:n=600,m=4000"), repro.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()

	manifestPath, urls := startCluster(b, g, 2, 4, false)
	cl := dial(b, manifestPath, urls)
	q := Q{Seed: 5}
	want, res := orderedRef(b, g, "triangles", 0, nil, q)
	var agg string

	b.ResetTimer()
	var cr repro.ClusterResult
	for i := 0; i < b.N; i++ {
		var got []byte
		got, cr = gather(b, cl, "triangles", 0, nil, q)
		if !bytes.Equal(got, want) {
			b.Fatal("gathered stream diverged from the single-process ordered query")
		}
		if key := aggKey(cr); agg == "" {
			agg = key
		} else if key != agg {
			b.Fatalf("aggregate drifted between iterations:\n%s\n%s", agg, key)
		}
	}
	b.StopTimer()

	clusterIOs := cr.Stats.BlockReads + cr.Stats.BlockWrites
	singleIOs := res.Stats.BlockReads + res.Stats.BlockWrites
	b.ReportMetric(float64(clusterIOs), "clusterIOs")
	b.ReportMetric(float64(singleIOs), "singleIOs")
	b.ReportMetric(float64(cr.Subproblems), "subproblems")
	b.ReportMetric(float64(cr.Matches), "matches")
}
