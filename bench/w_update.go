package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/diff"
)

// updateWorkload is update-mix: one writer applies seeded deltas to a
// disk-backed graph carrying two standing queries while one reader runs
// simulated triangle queries on the same handle.
type updateWorkload struct {
	e     *env
	edges [][2]uint32
	tris  [][3]uint32 // reference triangles of the initial graph
	ref   triangleRef
	ref4  tupleSet
	seeds []uint64 // the reader's query seeds
}

// updateWorkers is Options.Workers of the update-mix graph, and the
// Workers of its reader and subscriptions: the writer and the reader
// are the workload's two client goroutines, one core each.
const updateWorkers = 1

func newUpdateWorkload(e *env) (*updateWorkload, error) {
	edges, err := repro.Generate(e.p.graph, e.seed)
	if err != nil {
		return nil, err
	}
	w := &updateWorkload{e: e, edges: edges, seeds: querySeeds(e.rng(1), 10)}
	w.tris = refTriangles(edges)
	w.ref = digestTriangles(w.tris)
	w.ref4 = refCliques4(edges)
	return w, nil
}

// edgeModel is the benchmark's own copy of the edge set, from which the
// deltas are drawn: removals of present edges and additions of absent
// ones, never the same edge twice in one delta.
type edgeModel struct {
	r    *rand.Rand
	n    int            // additions use vertex ids below n
	idx  map[uint64]int // packed edge → position in list
	list []uint64
}

func newEdgeModel(edges [][2]uint32, r *rand.Rand) *edgeModel {
	m := &edgeModel{r: r, idx: map[uint64]int{}}
	for _, e := range edges {
		u, v := min(e[0], e[1]), max(e[0], e[1])
		m.n = max(m.n, int(v)+1)
		if u != v {
			m.insert(uint64(u)<<32 | uint64(v))
		}
	}
	return m
}

func (m *edgeModel) insert(k uint64) {
	if _, ok := m.idx[k]; !ok {
		m.idx[k] = len(m.list)
		m.list = append(m.list, k)
	}
}

func (m *edgeModel) remove(k uint64) {
	i := m.idx[k]
	last := m.list[len(m.list)-1]
	m.list[i] = last
	m.idx[last] = i
	m.list = m.list[:len(m.list)-1]
	delete(m.idx, k)
}

func unpack(k uint64) [2]uint32 { return [2]uint32{uint32(k >> 32), uint32(k)} }

// next draws the next delta and applies it to the model.
func (m *edgeModel) next(half int) (add, remove [][2]uint32) {
	taken := map[uint64]bool{}
	for len(remove) < half && len(taken) < len(m.list) {
		k := m.list[m.r.IntN(len(m.list))]
		if !taken[k] {
			taken[k] = true
			remove = append(remove, unpack(k))
		}
	}
	for len(add) < half {
		u, v := uint32(m.r.IntN(m.n)), uint32(m.r.IntN(m.n))
		k := uint64(min(u, v))<<32 | uint64(max(u, v))
		if _, present := m.idx[k]; u == v || present || taken[k] {
			continue
		}
		taken[k] = true
		add = append(add, unpack(k))
	}
	for _, e := range remove {
		m.remove(uint64(e[0])<<32 | uint64(e[1]))
	}
	for _, e := range add {
		m.insert(uint64(e[0])<<32 | uint64(e[1]))
	}
	return add, remove
}

func (m *edgeModel) edges() [][2]uint32 {
	out := make([][2]uint32, len(m.list))
	for i, k := range m.list {
		out[i] = unpack(k)
	}
	return out
}

// updateRec is one update as observed: its exact costs and the change it
// made to the two standing queries' match counts.
type updateRec struct {
	mergeIOs uint64
	csIOs    uint64 // both ChangeSets' Stats
	dT, dC   int64  // added − removed triangles and 4-cliques
}

// readRec is one reader query: the generation it ran on, identified by
// its CanonIOs (which strictly grows with every update), and its count.
type readRec struct {
	canonIOs  uint64
	triangles uint64
}

type updateInst struct {
	w          *updateWorkload
	g          *repro.Graph
	subT, subC *repro.Subscription
	model      *edgeModel
	canon0     uint64

	// Written by the writer only, read after the window.
	updates      []updateRec
	callMs       []float64 // Update call → return
	waitMs       []float64 // return → both ChangeSets received
	checkpointMs []float64

	mu      sync.Mutex
	reads   []readRec
	aloneMs []float64 // traced runs: reader latency with no writer, at set-up
	final   uint64    // triangles of the final generation
}

func (w *updateWorkload) open(rep int) (instance, error) {
	dir, err := w.e.setupDir(rep)
	if err != nil {
		return nil, err
	}
	g, err := repro.Build(repro.FromEdges(w.edges), repro.Options{MemoryWords: memWords, BlockWords: blockWords,
		Workers: updateWorkers, DiskPath: filepath.Join(dir, "graph.img")})
	if err != nil {
		return nil, err
	}
	in := &updateInst{w: w, g: g, model: newEdgeModel(w.edges, w.e.rng(3)), canon0: g.CanonIOs()}
	q := repro.Query{Workers: updateWorkers}
	if in.subT, err = g.Subscribe(nil, q); err == nil {
		in.subC, err = g.SubscribeCliques(nil, 4, q)
	}
	if err != nil {
		g.Close()
		return nil, err
	}
	if w.e.tr != nil {
		// The reader alone, for repro.reader_slowdown.
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := in.read(i); err != nil {
				in.close()
				return nil, err
			}
			in.aloneMs = append(in.aloneMs, float64(time.Since(t0))/1e6)
		}
		in.reads = nil
	}
	return in, nil
}

func (in *updateInst) setupIOs() uint64 { return in.canon0 }

func (in *updateInst) close() error {
	in.subT.Close()
	in.subC.Close()
	return in.g.Close()
}

func (in *updateInst) clients() []client {
	p := in.w.e.p
	return []client{
		{op: in.write, minOps: p.ioUpdates + p.ioUpdates/p.checkpoint + 1},
		{op: in.read, minOps: len(in.w.seeds)},
	}
}

// receive waits for a subscription's next ChangeSet.
func receive(s *repro.Subscription) (repro.ChangeSet, error) {
	select {
	case cs, ok := <-s.Changes():
		if !ok {
			return cs, fmt.Errorf("subscription ended: %v", s.Err())
		}
		return cs, nil
	case <-time.After(2 * time.Minute):
		return repro.ChangeSet{}, errors.New("no ChangeSet within 2 minutes")
	}
}

// write is the writer's i-th operation: an update (which ends when both
// ChangeSets have arrived), or a checkpoint after every p.checkpoint
// updates.
func (in *updateInst) write(i int) (string, error) {
	p := in.w.e.p
	if (i+1)%(p.checkpoint+1) == 0 {
		t0 := time.Now()
		err := in.g.Checkpoint()
		in.checkpointMs = append(in.checkpointMs, float64(time.Since(t0))/1e6)
		return "checkpoint", err
	}
	add, remove := in.model.next(p.deltaHalf)
	t0 := time.Now()
	ur, err := in.g.Update(nil, repro.Delta{Add: add, Remove: remove})
	if err != nil {
		return "update", err
	}
	tCall := time.Since(t0)
	cT, err := receive(in.subT)
	if err != nil {
		return "update", err
	}
	cC, err := receive(in.subC)
	if err != nil {
		return "update", err
	}
	in.callMs = append(in.callMs, float64(tCall)/1e6)
	in.waitMs = append(in.waitMs, float64(time.Since(t0)-tCall)/1e6)
	if ur.Added != int64(len(add)) || ur.Removed != int64(len(remove)) {
		return "update", mismatchf("update %d: %d added and %d removed, the model says %d and %d", len(in.updates), ur.Added, ur.Removed, len(add), len(remove))
	}
	if cT.Generation != ur.Generation || cC.Generation != ur.Generation {
		return "update", mismatchf("ChangeSets for generations %d and %d after update to %d", cT.Generation, cC.Generation, ur.Generation)
	}
	in.updates = append(in.updates, updateRec{
		mergeIOs: ur.MergeIOs,
		csIOs:    cT.Stats.IOs() + cC.Stats.IOs(),
		dT:       int64(len(cT.Added) - len(cT.Removed)),
		dC:       int64(len(cC.Added) - len(cC.Removed)),
	})
	return "update", nil
}

func (in *updateInst) read(i int) (string, error) {
	q := repro.Query{Seed: in.w.seeds[i%len(in.w.seeds)], Workers: updateWorkers, Mode: repro.ModeSimulated}
	res, err := in.g.TrianglesFunc(nil, q, nil)
	if err != nil {
		return "query", err
	}
	in.mu.Lock()
	in.reads = append(in.reads, readRec{canonIOs: res.CanonIOs, triangles: res.Triangles})
	in.mu.Unlock()
	return "query", nil
}

// checkChain verifies a run's reads and its final state: every read's
// count must be the count of the generation it ran on, derived from the
// initial count and the ChangeSets; the final counts must match what the
// ChangeSets accumulate to. It returns the final triangle and 4-clique
// counts.
func checkChain(r *report, what string, canon0 uint64, t0, c0 uint64, ups []updateRec, reads []readRec) (uint64, uint64) {
	expect := map[uint64]uint64{canon0: t0}
	t, c, canon := int64(t0), int64(c0), canon0
	for _, u := range ups {
		t += u.dT
		c += u.dC
		canon += u.mergeIOs
		expect[canon] = uint64(t)
	}
	for _, rd := range reads {
		want, ok := expect[rd.canonIOs]
		if !ok {
			r.problem("%s: a reader query ran on an unknown generation (CanonIOs %d)", what, rd.canonIOs)
		} else if rd.triangles != want {
			r.problem("%s: a reader query counted %d triangles, its generation has %d", what, rd.triangles, want)
		}
	}
	return uint64(t), uint64(c)
}

func (in *updateInst) finish(samples []sample, r *report) {
	w := in.w
	in.mu.Lock()
	reads := in.reads
	in.mu.Unlock()
	wantT, wantC := checkChain(r, "update-mix", in.canon0, w.ref.set.n, w.ref4.n, in.updates, reads)

	// The final generation must equal a fresh Build of the model's edge
	// set, the reference enumerators on it, and the accumulated changes.
	final := in.model.edges()
	refT, refC := digestTriangles(refTriangles(final)).set, refCliques4(final)
	fresh, err := repro.Build(repro.FromEdges(final), repro.Options{MemoryWords: memWords, BlockWords: blockWords, Workers: updateWorkers})
	if err != nil {
		r.problem("fresh build of the final edge set: %v", err)
		return
	}
	defer fresh.Close()
	for _, h := range []struct {
		name string
		g    *repro.Graph
	}{{"final generation", in.g}, {"fresh build", fresh}} {
		var ts, cs tupleSet
		q := repro.Query{Workers: updateWorkers, Mode: repro.ModeNative}
		_, err1 := h.g.TrianglesFunc(nil, q, func(a, b, c uint32) { ts.add(a, b, c) })
		_, err2 := h.g.CliquesFunc(nil, 4, q, func(vs []uint32) { cs.add(vs...) })
		switch {
		case err1 != nil || err2 != nil:
			r.problem("%s: %v", h.name, errors.Join(err1, err2))
		case ts != refT || cs != refC:
			r.problem("%s: %v and %v 4-cliques, reference %v and %v", h.name, ts, cs, refT, refC)
		}
	}
	if refT.n != wantT || refC.n != wantC {
		r.problem("the ChangeSets accumulate to %d triangles and %d 4-cliques, the final edge set has %d and %d", wantT, wantC, refT.n, refC.n)
	}
	in.final = refT.n

	r.addExtra(timing("update", latencies(samples, "update"))...)
	r.addExtra(timing("query", latencies(samples, "query"))...)
	if alone := median(in.aloneMs); alone > 0 {
		r.addExtra(metric{name: "repro.reader_slowdown", value: median(latencies(samples, "query")) / alone, unit: "ratio"})
	}
	if n := min(len(in.updates), w.e.p.ioUpdates); n > 0 {
		var sum float64
		for _, u := range in.updates[:n] {
			sum += float64(u.mergeIOs + u.csIOs)
		}
		r.addExtra(metric{name: "update_ios", value: sum / float64(n), unit: "IOs", n: n})
	}
}

func (in *updateInst) traced(dur time.Duration, r *report) (tracedResult, error) {
	w, e := in.w, in.w.e
	tr := e.tr
	res := tracedResult{edges: w.edges, tris: w.tris}

	r.addExtra(metric{name: "repro.update_call_ms", value: median(in.callMs), unit: "ms", n: len(in.callMs)},
		metric{name: "repro.changeset_wait_ms", value: median(in.waitMs), unit: "ms", n: len(in.waitMs)},
		metric{name: "repro.checkpoint_ms", value: median(in.checkpointMs), unit: "ms", n: len(in.checkpointMs)})

	im, err := replayBuild(tr, w.edges, updateWorkers, filepath.Join(e.dir, "replay.img"))
	if err != nil {
		return res, err
	}
	res.gap(im.canonIOs, in.canon0)
	chain := &genChain{cur: im, refs: map[*image]int{}}
	defer chain.close()

	model := newEdgeModel(w.edges, e.rng(3))
	var ups []updateRec
	writer := func(u int) (string, error) {
		add, remove := model.next(e.p.deltaHalf)
		root := tr.begin(nil, "repro", "repro.update")
		old := chain.pin()
		defer chain.unpin(old)
		out, err := replayUpdate(tr, root, old, add, remove, updateWorkers,
			filepath.Join(e.dir, fmt.Sprintf("replay.g%d", u+1)), filepath.Join(e.dir, "replay.u"))
		if err != nil {
			return "update", err
		}
		chain.install(out.next)
		if out.addedCount != int64(len(add)) || out.removedCount != int64(len(remove)) {
			return "update", mismatchf("replayed update %d: %d added and %d removed, the model says %d and %d", u, out.addedCount, out.removedCount, len(add), len(remove))
		}
		rec := updateRec{mergeIOs: out.mergeIOs}
		for _, spec := range []diff.Spec{{K: 3}, {K: 4}} {
			gone, st1, err := replayDiffPass(tr, root, old, out.removed, spec, updateWorkers)
			if err != nil {
				return "update", err
			}
			made, st2, err := replayDiffPass(tr, root, out.next, out.added, spec, updateWorkers)
			if err != nil {
				return "update", err
			}
			rec.csIOs += st1.IOs() + st2.IOs()
			d := int64(made.n) - int64(gone.n)
			if spec.K == 3 {
				rec.dT = d
			} else {
				rec.dC = d
			}
		}
		root.end(func(x *span) { x.IOs = rec.mergeIOs + rec.csIOs })
		ups = append(ups, rec)
		if u < len(in.updates) {
			pub := in.updates[u]
			res.gap(rec.mergeIOs, pub.mergeIOs)
			res.gap(rec.csIOs, pub.csIOs)
			if rec.dT != pub.dT || rec.dC != pub.dC {
				return "update", mismatchf("replayed update %d changed %d triangles and %d 4-cliques, the library %d and %d", u, rec.dT, rec.dC, pub.dT, pub.dC)
			}
		}
		return "update", nil
	}
	var mu sync.Mutex
	var reads []readRec
	reader := func(i int) (string, error) {
		im := chain.pin()
		defer chain.unpin(im)
		root := tr.begin(nil, "repro", "repro.query")
		q := replayQuery{kind: kindTriangles, seed: w.seeds[i%len(w.seeds)], workers: updateWorkers, scratch: filepath.Join(e.dir, "replay.q")}
		out, err := q.replay(tr, root, im, func([]uint32) {})
		root.end(func(x *span) { x.IOs = out.stats.IOs() })
		if err != nil {
			return "query", err
		}
		mu.Lock()
		reads = append(reads, readRec{canonIOs: im.canonIOs, triangles: out.matches})
		mu.Unlock()
		return "query", nil
	}
	res.lr, err = runClients([]client{{op: writer, minOps: 1}, {op: reader, minOps: 1}}, dur)
	if err != nil {
		return res, err
	}
	checkChain(r, "replay", im.canonIOs, w.ref.set.n, w.ref4.n, ups, reads)
	ix := indexSpans(tr.snapshot())
	merges := ix.spans("graph.merge_delta", "")
	r.addExtra(
		metric{name: "graph.merge_self_ms", value: meanMs(merges, ix.self), unit: "ms", n: len(merges)},
		metric{name: "emsort.merge_sort_ms", value: meanMs(merges, func(s *span) time.Duration { return s.dur() - ix.self(s) }), unit: "ms", n: len(merges)},
		metric{name: "graph.image_write_ios", value: meanOf(ix.spans("graph.image_write", ""), func(s *span) float64 { return float64(s.IOs) }), unit: "IOs"})

	last := chain.pin()
	defer chain.unpin(last)
	return res, res.layerProbes(e, probeSpec{im: last, imEdges: model.edges(), kclique: true,
		g: in.g, gTris: in.final, seed: w.seeds[0]})
}

// genChain is the replay's current image plus the images readers still
// hold, released when the last reader lets go (the library's generation
// refcounting).
type genChain struct {
	mu   sync.Mutex
	cur  *image
	refs map[*image]int
}

func (c *genChain) pin() *image {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refs[c.cur]++
	return c.cur
}

func (c *genChain) unpin(im *image) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refs[im]--; c.refs[im] == 0 && im != c.cur {
		delete(c.refs, im)
		im.close()
	}
}

func (c *genChain) install(next *image) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.cur
	c.cur = next
	if c.refs[old] == 0 {
		delete(c.refs, old)
		old.close()
	}
}

func (c *genChain) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur.close()
}
