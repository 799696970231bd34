package main

import (
	"fmt"
	"net/http/httptest"
	"time"

	"repro"
	"repro/internal/diff"
	"repro/internal/extmem"
	"repro/internal/serve"
)

// A traced run (-trace 1) has two halves. First the workload runs
// untraced exactly as in an end-to-end run; then the tracer is switched
// on and the operations are replayed through the layers' own functions
// (replay.go), or, for wire, re-run with traced handler wrappers. Layers
// the workload's operations bypass are then probed on the workload's own
// data, so every per-layer metric is measured on every workload. The
// difference between the two halves' medians is the tracing overhead.

// tracedResult is what an instance's traced half returns.
type tracedResult struct {
	lr       loopResult
	gapIOs   uint64 // Σ |replayed − library| over every exact count compared
	compared int
	edges    [][2]uint32 // the workload's main graph, for the layer probes
	tris     [][3]uint32 // and its triangles
}

// gap compares one exact count the replay reproduced with the library's.
func (t *tracedResult) gap(replayed, library uint64) {
	t.compared++
	if replayed > library {
		t.gapIOs += replayed - library
	} else {
		t.gapIOs += library - replayed
	}
}

func runTraced(e *env, w workload) (*report, error) {
	inst, err := w.open(0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	half := time.Duration(e.seconds * float64(time.Second) / 2)

	lu, err := runClients(inst.clients(), half)
	if err != nil {
		return nil, err
	}
	r := &report{attempted: lu.attempted, failed: lu.failed, problems: lu.mismatches}
	inst.finish(lu.samples, r)

	e.tr.on.Store(true)
	tres, err := inst.traced(half, r)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	r.attempted += tres.lr.attempted
	r.failed += tres.lr.failed
	r.problems = append(r.problems, tres.lr.mismatches...)
	if err := runProbes(e, tres.edges, tres.tris); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	e.tr.on.Store(false)
	if tres.compared == 0 {
		r.problem("the replay reproduced no exact count to compare")
	}
	layerMetrics(r, indexSpans(e.tr.snapshot()), lu, tres)
	return r, nil
}

// probeSpec says which layers a workload's operations bypass and so must
// be probed on its own graph after the traced window.
type probeSpec struct {
	im      *image      // the image the 4-clique and differential probes run on
	imEdges [][2]uint32 // its edge set
	kclique bool        // a native 4-clique enumeration
	diff    bool        // two differential passes per standing-query family
	g       *repro.Graph
	gTris   uint64 // triangles of g
	seed    uint64
}

// layerProbes runs the probes ps asks for: a native 4-clique enumeration
// of ps.im, two differential passes per standing-query family anchored on
// 80 of its edges, and, when ps.g is set, one paged native stream of ps.g
// through the serve layer over loopback (the probe's server takes
// ownership of ps.g).
func (t *tracedResult) layerProbes(e *env, ps probeSpec) error {
	tr := e.tr
	im, seed := ps.im, ps.seed
	if ps.kclique {
		want := refCliques4(ps.imEdges)
		for rep := 0; rep < 2; rep++ {
			root := tr.begin(nil, "bench", "probe.kclique")
			var set tupleSet
			q := replayQuery{kind: kindCliques4, seed: seed, workers: 1, native: true}
			_, err := q.replay(tr, root, im, func(vs []uint32) { set.add(vs...) })
			root.end(nil)
			if err != nil {
				return err
			}
			if set != want {
				return mismatchf("4-clique probe: %v, want %v", set, want)
			}
		}
	}
	if ps.diff {
		// Each probe is one ChangeSet's worth of work per family: two
		// passes of 80 anchors, like an update of 80 removals and 80
		// additions. Anchors are edges of the image (duplicates are fine).
		r := e.rng(7)
		words := packDelta(ps.imEdges)
		for rep := 0; rep < 2; rep++ {
			root := tr.begin(nil, "bench", "probe.diff")
			for _, spec := range []diff.Spec{{K: 3}, {K: 4}} {
				for pass := 0; pass < 2; pass++ {
					anchors := make([]extmem.Word, 80)
					for i := range anchors {
						anchors[i] = words[r.IntN(len(words))]
					}
					if _, _, err := replayDiffPass(tr, root, im, anchors, spec, 1); err != nil {
						return err
					}
				}
			}
			root.end(nil)
		}
	}
	if g := ps.g; g != nil {
		// The paged stream must equal the unpaged stream of the same seed.
		ref := fnvOffset
		var line []byte
		if _, err := g.TrianglesFunc(nil, repro.Query{Seed: seed, Workers: 1, Mode: repro.ModeNative}, func(a, b, c uint32) {
			line = serve.AppendEmission(line[:0], []uint32{a, b, c})
			ref.bytes(line)
		}); err != nil {
			return err
		}
		srv := serve.New(serve.Config{})
		if err := srv.AddGraph("probe", g, ""); err != nil {
			return err
		}
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			srv.Close()
		}()
		limit := ps.gTris/5 + 1 // five pages, like a wire stream
		for rep := 0; rep < 2; rep++ {
			st, err := pagedStream(tr, ts.Client(), ts.URL, "probe", seed, limit)
			if err != nil {
				return err
			}
			if st.hash != ref || st.n != ps.gTris {
				return mismatchf("serve probe: paged stream of %d emissions differs from the unpaged stream of %d", st.n, ps.gTris)
			}
		}
	}
	return nil
}

// layerMetrics computes the per-layer metrics BENCHMARK.json lists from
// the trace, the probes, and the untraced half's runtime counts.
func layerMetrics(r *report, ix *spanIndex, lu loopResult, t tracedResult) {
	dur := func(s *span) time.Duration { return s.dur() }
	self := func(s *span) time.Duration { return ix.self(s) }
	kernel := func(s *span) time.Duration { return s.dur() - time.Duration(s.EmitNs) }
	sumOf := func(ss []*span, f func(*span) float64) float64 {
		var x float64
		for _, s := range ss {
			x += f(s)
		}
		return x
	}
	sumMs := func(ss []*span, f func(*span) time.Duration) float64 {
		return sumOf(ss, func(s *span) float64 { return float64(f(s)) / 1e6 })
	}
	ios := func(s *span) float64 { return float64(s.IOs) }
	sumIOs := func(ss []*span) float64 { return sumOf(ss, ios) }
	maxOf := func(ss []*span, f func(*span) float64) float64 {
		var m float64
		for _, s := range ss {
			m = max(m, f(s))
		}
		return m
	}

	tri := ix.spans("trienum.cacheaware", "")
	kernels := append(append([]*span(nil), tri...), ix.spans("subgraph.kclique", "")...)
	probe := func(name string) float64 { return perUnitNs(ix.spans(name, "")) }

	r.add("extmem.session_ms", meanMs(ix.spans("extmem.session", "repro.query"), dur), "ms")
	r.add("extmem.word_ops_per_query", meanOf(tri, func(s *span) float64 { return float64(s.Words) }), "count")
	r.add("extmem.peak_lease_words", maxOf(kernels, func(s *span) float64 { return float64(s.PeakLease) }), "words")
	r.add("extmem.peak_disk_words", maxOf(kernels, func(s *span) float64 { return float64(s.PeakDisk) }), "words")
	r.add("extmem.write_ns_per_word.mem", probe("probe.extmem.write.mem"), "ns")
	r.add("extmem.read_ns_per_word.mem", probe("probe.extmem.read.mem"), "ns")
	r.add("extmem.read_ns_per_word.file", probe("probe.extmem.read.file"), "ns")
	r.add("extmem.read_ns_per_word.native", probe("probe.extmem.read.native"), "ns")
	r.add("emio.scan_ns_per_word", probe("probe.emio.scan"), "ns")

	canonSorts := ix.spans("emsort.canon_sort", "")
	r.add("emsort.canon_sort_ms", sumMs(canonSorts, dur), "ms")
	r.add("emsort.canon_sort_ios", sumIOs(canonSorts), "IOs")
	r.add("emsort.canon_sort_calls", float64(len(canonSorts)), "count")
	merges := ix.spans("graph.merge_delta", "")
	perUpdate := func(x float64) float64 {
		if len(merges) == 0 {
			return 0
		}
		return x / float64(len(merges))
	}
	r.add("emsort.merge_sort_ios", perUpdate(sumIOs(ix.spans("emsort.merge_sort", ""))), "IOs")
	r.add("emsort.multiway_ns_per_word", probe("probe.emsort.multiway"), "ns")
	r.add("emsort.funnel_ns_per_word", probe("probe.emsort.funnel"), "ns")

	canon := ix.spans("graph.canonicalize", "")
	r.add("graph.canon_self_ms", sumMs(canon, self), "ms")
	r.add("graph.canon_ios", sumIOs(ix.spans("repro.build", "")), "IOs")
	r.add("graph.canon_alloc_mb", sumOf(canon, func(s *span) float64 { return float64(s.AllocBytes) })/(1<<20), "MiB")
	r.add("graph.freeze_ms", sumMs(ix.spans("graph.freeze", ""), dur), "ms")
	r.add("graph.merge_ios", meanOf(merges, ios), "IOs")

	r.add("trienum.ms_per_query", meanMs(tri, kernel), "ms")
	r.add("trienum.sim_ios", meanOf(tri, ios), "IOs")
	r.add("trienum.worker_io_skew", meanOf(tri, func(s *span) float64 { return s.Skew }), "ratio")
	r.add("trienum.colors", meanOf(tri, func(s *span) float64 { return float64(s.Colors) }), "count")
	r.add("trienum.subproblems", meanOf(tri, func(s *span) float64 { return float64(s.Subprobs) }), "count")
	r.add("trienum.high_degree_vertices", meanOf(tri, func(s *span) float64 { return float64(s.HighDeg) }), "count")

	kc := ix.spans("subgraph.kclique", "")
	r.add("subgraph.kclique_ms", meanMs(kc, kernel), "ms")
	r.add("subgraph.max_subproblem_edges", maxOf(kc, func(s *span) float64 { return float64(s.MaxSub) }), "edges")

	dt, dc := ix.spans("diff.triangles", ""), ix.spans("diff.cliques", "")
	r.add("diff.triangles_ms", meanMs(dt, dur), "ms")
	r.add("diff.cliques_ms", meanMs(dc, dur), "ms")
	// A ChangeSet is two passes: the removed pass and the added pass.
	passes := float64(len(dt) + len(dc))
	diffIOs := 0.0
	if passes > 0 {
		diffIOs = (sumIOs(dt) + sumIOs(dc)) / (passes / 2)
	}
	r.add("diff.ios", diffIOs, "IOs")

	var roots []*span
	for _, name := range []string{"repro.query", "repro.update", "wire.stream", "wire.gather"} {
		roots = append(roots, ix.spans(name, "")...)
	}
	emitMs := func(s *span) time.Duration {
		var ns int64
		for _, c := range ix.children[s.ID] {
			ns += c.EmitNs
		}
		return time.Duration(ns)
	}
	r.add("repro.emit_ms", meanMs(ix.spans("repro.query", ""), emitMs), "ms")
	r.add("repro.unattributed_ms", meanMs(roots, self), "ms")
	r.add("repro.unattributed_ios", float64(t.gapIOs), "IOs")

	first, resumed := ix.spans("wire.page", ""), ix.spans("wire.resume", "")
	ttfb := func(s *span) time.Duration { return time.Duration(s.TTFBNs) }
	body := func(s *span) time.Duration { return s.dur() - time.Duration(s.TTFBNs) }
	pages := append(append([]*span(nil), first...), resumed...)
	r.add("serve.encode_ns_per_emission", probe("probe.serve.encode"), "ns")
	r.add("serve.ttfb_ms", meanMs(first, ttfb), "ms")
	r.add("serve.body_ms", meanMs(pages, body), "ms")
	ratio := 0.0
	if f := meanMs(first, ttfb); f > 0 && len(resumed) > 0 {
		ratio = meanMs(resumed, ttfb) / f
	}
	r.add("serve.resume_ttfb_ratio", ratio, "ratio")
	streams := ix.spans("wire.stream", "")
	var pagesPer, bytesPer float64
	if len(streams) > 0 {
		pagesPer = float64(len(pages)) / float64(len(streams))
	}
	var bytes, emissions uint64
	for _, s := range pages {
		bytes += s.Words // a page span's Words is its body bytes
		emissions += s.Units
	}
	if emissions > 0 {
		bytesPer = float64(bytes) / float64(emissions)
	}
	r.add("serve.pages_per_stream", pagesPer, "count")
	r.add("serve.bytes_per_emission", bytesPer, "bytes")

	r.add("cluster.sort_ns_per_tuple", probe("probe.cluster.sort"), "ns")
	r.add("cluster.merge_ns_per_tuple", probe("probe.cluster.merge"), "ns")

	ops := len(lu.samples)
	allocPerOp := 0.0
	if ops > 0 {
		allocPerOp = float64(lu.allocBytes) / float64(ops) / (1 << 20)
	}
	r.add("go.alloc_mb_per_op", allocPerOp, "MiB")
	r.add("go.num_gc", float64(lu.numGC), "count")
	r.add("go.gc_cpu_fraction", lu.gcFraction, "ratio")

	overhead := 0.0
	if u := median(latencies(lu.samples)); u > 0 {
		overhead = (median(latencies(t.lr.samples))/u - 1) * 100
	}
	r.add("trace.overhead_pct", overhead, "%")
	r.add("trace.spans", float64(len(ix.byID)), "count")
}
