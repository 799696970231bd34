package main

import (
	"math/rand/v2"
	"path/filepath"
	"sync"
	"time"

	"repro"
)

// queryWorkload is sim-mem and native-disk: the same graph, queried on
// the simulated machine of a memory-backed handle (the faithful path) or
// natively on a disk-backed one (the fast path).
type queryWorkload struct {
	e      *env
	native bool
	edges  [][2]uint32
	tris   [][3]uint32 // reference triangles, canonical order
	ref    triangleRef
	ref4   tupleSet // reference 4-cliques (native-disk)
	seeds  []uint64
	plan   []queryKind // native-disk's op order
}

// queryWorkers is the worker count of every sim-mem and native-disk
// Build and query: both cores of the machine the baseline was taken on.
const queryWorkers = 2

func newQueryWorkload(e *env) (*queryWorkload, error) {
	edges, err := repro.Generate(e.p.graph, e.seed)
	if err != nil {
		return nil, err
	}
	w := &queryWorkload{e: e, native: e.name == "native-disk", edges: edges}
	w.tris = refTriangles(edges)
	w.ref = digestTriangles(w.tris)
	r := e.rng(1)
	w.seeds = querySeeds(r, 10)
	if w.native {
		w.plan = opPlan(r)
		w.ref4 = refCliques4(edges)
	}
	return w, nil
}

// opPlan is native-disk's op order: 100 plain, 20 ordered and 20 4-clique
// queries, in 20 blocks of 5 plain, 1 ordered and 1 4-clique query, each
// block shuffled. Blocks keep the mix the same in every prefix a
// time-bounded run gets through, so the pooled percentiles fall in the
// same kinds on every seed.
func opPlan(r *rand.Rand) []queryKind {
	plan := make([]queryKind, 0, 140)
	for b := 0; b < 20; b++ {
		block := []queryKind{kindTriangles, kindTriangles, kindTriangles, kindTriangles, kindTriangles, kindOrdered, kindCliques4}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		plan = append(plan, block...)
	}
	return plan
}

func (w *queryWorkload) kindAt(i int) queryKind {
	if !w.native {
		return kindTriangles
	}
	return w.plan[i%len(w.plan)]
}

func (w *queryWorkload) seedAt(i int) uint64 { return w.seeds[i%len(w.seeds)] }

var kindNames = map[queryKind]string{kindTriangles: "query", kindOrdered: "ordered", kindCliques4: "clique"}

func (w *queryWorkload) open(rep int) (instance, error) {
	opts := repro.Options{MemoryWords: memWords, BlockWords: blockWords, Workers: queryWorkers}
	in := &queryInst{w: w, ios: map[uint64]uint64{}}
	if w.native {
		dir, err := w.e.setupDir(rep)
		if err != nil {
			return nil, err
		}
		opts.DiskPath = filepath.Join(dir, "graph.img")
	}
	g, err := repro.Build(repro.FromEdges(w.edges), opts)
	if err != nil {
		return nil, err
	}
	in.g = g
	return in, nil
}

type queryInst struct {
	w *queryWorkload
	g *repro.Graph

	mu        sync.Mutex
	ios       map[uint64]uint64 // sim-mem: block I/Os of each query seed
	firstEmit []float64         // plain queries: call → first emission, ms
}

func (in *queryInst) setupIOs() uint64 { return in.g.CanonIOs() }
func (in *queryInst) close() error     { return in.g.Close() }

func (in *queryInst) clients() []client {
	return []client{{op: in.op, minOps: len(in.w.seeds)}}
}

// checkIOs records the block I/Os of a query seed and requires every
// later query with that seed to report the same count.
func checkIOs(mu *sync.Mutex, m map[uint64]uint64, seed, ios uint64, what string) error {
	mu.Lock()
	defer mu.Unlock()
	if prev, ok := m[seed]; ok && prev != ios {
		return mismatchf("%s with seed %d: %d block I/Os, earlier %d", what, seed, ios, prev)
	}
	m[seed] = ios
	return nil
}

func (in *queryInst) op(i int) (string, error) {
	w := in.w
	kind := w.kindAt(i)
	name := kindNames[kind]
	q := repro.Query{Seed: w.seedAt(i), Workers: queryWorkers, Mode: repro.ModeSimulated}
	if w.native {
		q.Mode = repro.ModeNative
	}
	switch kind {
	case kindOrdered:
		q.Ordered = true
		h, n := fnvOffset, uint64(0)
		res, err := in.g.TrianglesFunc(nil, q, func(a, b, c uint32) { h.words(a, b, c); n++ })
		if err != nil {
			return name, err
		}
		if n != w.ref.set.n || res.Triangles != n || h != w.ref.seq {
			return name, mismatchf("ordered stream: %d triangles (result says %d), hash %016x; want %d, %016x", n, res.Triangles, h, w.ref.set.n, w.ref.seq)
		}
		return name, nil
	case kindCliques4:
		var set tupleSet
		res, err := in.g.CliquesFunc(nil, 4, q, func(vs []uint32) { set.add(vs...) })
		if err != nil {
			return name, err
		}
		if set != w.ref4 || res.Matches != set.n {
			return name, mismatchf("4-cliques with seed %d: %v (result says %d); want %v", q.Seed, set, res.Matches, w.ref4)
		}
		return name, nil
	}
	var set tupleSet
	var first time.Duration
	t0 := time.Now()
	res, err := in.g.TrianglesFunc(nil, q, func(a, b, c uint32) {
		if set.n == 0 {
			first = time.Since(t0)
		}
		set.add(a, b, c)
	})
	if err != nil {
		return name, err
	}
	if set != w.ref.set || res.Triangles != set.n {
		return name, mismatchf("triangles with seed %d: %v (result says %d); want %v", q.Seed, set, res.Triangles, w.ref.set)
	}
	in.mu.Lock()
	in.firstEmit = append(in.firstEmit, float64(first)/1e6)
	in.mu.Unlock()
	if !w.native {
		return name, checkIOs(&in.mu, in.ios, q.Seed, res.Stats.IOs(), "query")
	}
	return name, nil
}

func (in *queryInst) finish(samples []sample, r *report) {
	r.addExtra(timing("query", latencies(samples, "query"))...)
	if in.w.native {
		r.addExtra(timing("ordered", latencies(samples, "ordered"))...)
		r.addExtra(timing("clique", latencies(samples, "clique"))...)
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.ios) != len(in.w.seeds) {
		r.problem("only %d of %d query seeds ran", len(in.ios), len(in.w.seeds))
	}
	r.addExtra(metric{name: "query_ios", value: meanIOs(in.ios), unit: "IOs", n: len(in.ios)})
}

func meanIOs(m map[uint64]uint64) float64 {
	var xs []float64
	for _, v := range m {
		xs = append(xs, float64(v))
	}
	return mean(xs)
}

func (in *queryInst) traced(dur time.Duration, r *report) (tracedResult, error) {
	w, tr := in.w, in.w.e.tr
	res := tracedResult{edges: w.edges, tris: w.tris}
	path := ""
	if w.native {
		path = filepath.Join(w.e.dir, "replay.img")
	}
	im, err := replayBuild(tr, w.edges, queryWorkers, path)
	if err != nil {
		return res, err
	}
	defer im.close()
	res.gap(im.canonIOs, in.g.CanonIOs())

	in.mu.Lock()
	r.addExtra(metric{name: "repro.first_emit_ms", value: median(in.firstEmit), unit: "ms", n: len(in.firstEmit)})
	in.mu.Unlock()

	var mu sync.Mutex
	replayIOs := map[uint64]uint64{}
	op := func(i int) (string, error) {
		kind := w.kindAt(i)
		q := replayQuery{kind: kind, seed: w.seedAt(i), workers: queryWorkers, native: w.native}
		root := tr.begin(nil, "repro", "repro.query")
		var set tupleSet
		h := fnvOffset
		out, err := q.replay(tr, root, im, func(vs []uint32) { set.add(vs...); h.words(vs...) })
		root.end(func(x *span) { x.IOs = out.stats.IOs() })
		if err != nil {
			return kindNames[kind], err
		}
		want := w.ref.set
		switch {
		case kind == kindCliques4:
			want = w.ref4
		case kind == kindOrdered && h != w.ref.seq:
			return kindNames[kind], mismatchf("replayed ordered stream hash %016x, want %016x", h, w.ref.seq)
		}
		if set != want {
			return kindNames[kind], mismatchf("replayed %s: %v, want %v", kindNames[kind], set, want)
		}
		if !w.native {
			return kindNames[kind], checkIOs(&mu, replayIOs, q.seed, out.stats.IOs(), "replayed query")
		}
		return kindNames[kind], nil
	}
	if res.lr, err = runClients([]client{{op: op, minOps: len(w.seeds)}}, dur); err != nil {
		return res, err
	}
	if w.native {
		ds := indexSpans(tr.snapshot()).spans("repro.ordered_deliver", "")
		r.addExtra(metric{name: "repro.ordered_deliver_ms", value: meanMs(ds, (*span).dur), unit: "ms", n: len(ds)})
	}
	if !w.native {
		// trienum.sim_ios must equal query_ios seed by seed.
		in.mu.Lock()
		for seed, ios := range replayIOs {
			if pub, ok := in.ios[seed]; ok {
				res.gap(ios, pub)
			}
		}
		in.mu.Unlock()
	}
	return res, res.layerProbes(w.e, probeSpec{im: im, imEdges: w.edges, kclique: !w.native, diff: true,
		g: in.g, gTris: w.ref.set.n, seed: w.seeds[0]})
}
