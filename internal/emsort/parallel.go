package emsort

import (
	"context"
	"runtime"
	"sort"

	"repro/internal/ctxutil"
	"repro/internal/extmem"
)

// The parallel sort(E) substrate. The cache-aware multiway mergesort
// decomposes into independent units — one formation run per Θ(M) slice
// of the input, and one top-level merge per key range of the output —
// that share no mutable state once the coordinator has frozen the input
// with extmem.Snapshot. This file runs those units on extmem.RunOrdered —
// a pool of workers, each executing on its own extmem shard (a private
// M-word cache over the shared read-only region, the PEM accounting of
// shard.go) — which replays the units' output streams in the fixed unit
// order on the coordinator.
//
// Two properties hold by construction, for every worker count:
//
//   - Byte-identity: the parallel sort emits exactly the bytes of
//     SortRecords. Formation runs use the geometry of planSort, so run
//     contents match; the key-range merges partition the output at value
//     boundaries with the stable (key, word, run) comparator of
//     mergeRuns, so the concatenated chunks equal the sequential stable
//     multi-pass merge.
//   - Exact accounting: every unit runs against the same frozen input
//     from a cold private cache, so its I/O counts do not depend on
//     scheduling; summed per-worker Stats plus the coordinator's equal
//     the one-worker parallel run exactly. (As with the trienum engine,
//     parallel totals differ from the *sequential reference sort* by a
//     constant factor — units are charged cold starts and the coordinator
//     re-writes the streamed results — which is the accounting the PEM
//     model performs.)
//
// Inputs whose geometry leaves nothing to parallelize (a single run, too
// little internal memory, an unaligned extent, or a sample index that
// would not fit the internal-memory budget) fall back to the sequential
// sorts. In the multi-pass merge regime (n > k·runWords) the engine runs
// the sequential intermediate passes on the coordinator and parallelizes
// the top-level pass — see ParallelSortRecordsCtx. Every fallback
// predicate is a pure function of the input and the machine
// configuration — never of the worker count — so the fallbacks cannot
// break cross-worker-count invariance.

const (
	// sortBatchWords is the number of words per stream handoff from a
	// worker to the coordinator's merge layer.
	sortBatchWords = 1 << 13
	// sortStreamDepth bounds the batches a not-yet-consumed unit may
	// buffer before its worker blocks, keeping the engine's native memory
	// at O(workers · sortStreamDepth · sortBatchWords) words.
	sortStreamDepth = 4
)

// ParallelSortRecords sorts fixed-stride records like SortRecords —
// producing byte-identical output — with run formation and the top-level
// multiway merge fanned out across worker shards. workers <= 0 selects
// runtime.GOMAXPROCS(0). The returned per-worker stats are the parallel
// phases' I/O breakdown (the coordinator's own I/Os accrue to the
// extent's Space as usual); their aggregate is identical at every worker
// count.
func ParallelSortRecords(ext extmem.Extent, stride int, key Key, workers int) []extmem.Stats {
	ws, _ := ParallelSortRecordsCtx(nil, ext, stride, key, workers)
	return ws
}

// ParallelSortRecordsCtx is ParallelSortRecords with cooperative
// cancellation: the engine checks ctx between runs and between merge
// chunks, drains its worker pool cleanly, and returns ctx.Err() with the
// stats accumulated so far. On a non-nil error the extent's contents are
// unspecified (a prefix may hold merged records); callers are expected to
// release the scratch the sort was working in. A nil ctx never cancels.
func ParallelSortRecordsCtx(ctx context.Context, ext extmem.Extent, stride int, key Key, workers int) ([]extmem.Stats, error) {
	n := ext.Len()
	if n%int64(stride) != 0 {
		panic("emsort: extent length not a multiple of record stride")
	}
	if err := ctxutil.Err(ctx); err != nil {
		return nil, err
	}
	if n <= int64(stride) {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sp := ext.Space()
	cfg := sp.Config()
	avail := cfg.M - sp.Leased()
	if avail < 8*cfg.B {
		ObliviousSortRecords(ext, stride, key)
		return nil, nil
	}
	plan := planSort(cfg, avail, stride)
	if n <= plan.runWords {
		loadSortStore(ext, stride, key)
		return nil, nil
	}
	if ext.Base()&int64(cfg.B-1) != 0 {
		// Snapshot needs a block-aligned shared region; stay sequential.
		SortRecords(ext, stride, key)
		return nil, nil
	}
	numRuns := int((n + plan.runWords - 1) / plan.runWords)
	// Multi-pass merge regime: when the formation runs exceed the merge
	// fan-in, the sequential engine merges in several passes. The parallel
	// engine mirrors its geometry exactly: every pass but the last runs
	// sequentially on the coordinator (whole-extent rewrites with nothing
	// for the key-range splitter to partition), collapsing the formation
	// runs to at most fanIn top-level runs, and the final pass — over the
	// same top-level runs the sequential engine would merge last — is
	// fanned out below. With numRuns <= fanIn this degenerates to zero
	// intermediate passes and the single-pass geometry.
	topRunWords := plan.runWords
	passes := 0
	for (n+topRunWords-1)/topRunWords > int64(plan.fanIn) {
		topRunWords *= int64(plan.fanIn)
		passes++
	}
	numTop := int((n + topRunWords - 1) / topRunWords)
	// Sample geometry: one sampled record per block of top-level run
	// data. The sample index localizes every boundary search to one
	// block; both the coordinator and each consulting shard lease its
	// footprint.
	qRec := int64(cfg.B / stride)
	if qRec < 1 {
		qRec = 1
	}
	st := int64(stride)
	nRec := n / st
	runRecs := make([]int64, numTop)
	totalSamples := 0
	for r := range runRecs {
		lo := int64(r) * (topRunWords / st)
		hi := lo + topRunWords/st
		if hi > nRec {
			hi = nRec
		}
		runRecs[r] = hi - lo
		totalSamples += int((runRecs[r] + qRec - 1) / qRec)
	}
	if totalSamples > avail-2*cfg.B || totalSamples+4*numTop > cfg.M-2*cfg.B {
		SortRecords(ext, stride, key)
		return nil, nil
	}

	// Phase 1 — run formation. Freeze the input; each task loads its run
	// from the shared region, sorts it natively, and streams it back; the
	// coordinator lays the runs down in a fresh scratch extent and — in
	// the single-pass regime, where formation runs are the top-level
	// runs — extracts the per-run sample index on the way through.
	shared := sp.Snapshot(ext)
	mark := sp.Mark()
	defer sp.Release(mark)
	runsBuf := sp.Alloc(n)

	// The sample index is leased only while it exists: from phase 1's
	// inline extraction in the single-pass regime, but not before the
	// intermediate passes in the multi-pass one — mergePass needs the
	// merge heap's headroom, and the samples are extracted after it.
	if passes == 0 {
		releaseSamples := sp.Lease(totalSamples)
		defer releaseSamples()
	}
	samples := make([][]extmem.Word, numTop)
	sortRun := func(r int, shard *extmem.Space, send func([]extmem.Word) bool) {
		lo := int64(r) * plan.runWords
		hi := min(lo+plan.runWords, n)
		release := shard.Lease(int(hi - lo))
		defer release()
		buf := make([]extmem.Word, hi-lo)
		shard.ExtentAt(lo, hi-lo).Load(buf)
		sortNative(buf, stride, key)
		for o := 0; o < len(buf); o += sortBatchWords {
			e := o + sortBatchWords
			if e > len(buf) {
				e = len(buf)
			}
			if !send(buf[o:e:e]) {
				return
			}
		}
	}
	var cur int64
	ws, err := extmem.RunOrdered(ctx, cfg, shared, numRuns, sortRun, workers, sortStreamDepth, func(task int, batch []extmem.Word) {
		runLo := int64(task) * plan.runWords
		for _, w := range batch {
			if passes == 0 {
				off := cur - runLo
				if off%st == 0 && (off/st)%qRec == 0 {
					samples[task] = append(samples[task], w)
				}
			}
			runsBuf.Write(cur, w)
			cur++
		}
	})
	if err != nil {
		return ws, err
	}

	if passes > 0 {
		// Intermediate merge passes — the sequential engine's exact
		// ping-pong geometry, run on the coordinator. After them the
		// scratch holds numTop sorted runs of topRunWords each, the same
		// top-level runs SortRecords would merge in its final pass.
		scratch2 := sp.Alloc(n)
		src, dst := runsBuf, scratch2
		runLen := plan.runWords
		for p := 0; p < passes; p++ {
			if err := ctxutil.Err(ctx); err != nil {
				return ws, err
			}
			mergePass(src, dst, runLen, plan.fanIn, stride, key)
			runLen *= int64(plan.fanIn)
			src, dst = dst, src
		}
		runsBuf = src
		// The formation runs the inline extraction would have indexed no
		// longer exist; sample the top-level runs in the same grid —
		// records 0, qRec, 2·qRec, … of each run.
		releaseSamples := sp.Lease(totalSamples)
		defer releaseSamples()
		for r := 0; r < numTop; r++ {
			runLo := int64(r) * topRunWords
			for rec := int64(0); rec < runRecs[r]; rec += qRec {
				samples[r] = append(samples[r], runsBuf.Read(runLo+rec*st))
			}
		}
	}

	// Phase 2 — key-range merge. Splitters are drawn from the global
	// sample multiset; chunk j merges, from every run, the records whose
	// (key, word) lies in [splitter j-1, splitter j) — located exactly by
	// a lower-bound probe confined to one sample gap — with the stable
	// (key, word, run) comparator. Concatenating the chunks in order
	// therefore reproduces the sequential merge bytes.
	wordLess := func(a, b extmem.Word) bool {
		ka, kb := key(a), key(b)
		return ka < kb || (ka == kb && a < b)
	}
	all := make([]extmem.Word, 0, totalSamples)
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return wordLess(all[i], all[j]) })
	var splitters []extmem.Word
	for j := 1; j < numTop; j++ {
		cand := all[j*len(all)/numTop]
		if len(splitters) == 0 || wordLess(splitters[len(splitters)-1], cand) {
			splitters = append(splitters, cand)
		}
	}

	shared2 := sp.Snapshot(runsBuf)
	mergeTask := func(j int, shard *extmem.Space, send func([]extmem.Word) bool) {
		release := shard.Lease(totalSamples + 4*numTop)
		defer release()
		view := shard.ExtentAt(0, n)
		segs := make([][2]int64, numTop) // [pos, end) in words
		for r := 0; r < numTop; r++ {
			runLo := int64(r) * topRunWords
			lo, hi := int64(0), runRecs[r]
			if j > 0 {
				lo = lowerBoundInRun(view, runLo, runRecs[r], st, qRec, samples[r], wordLess, splitters[j-1])
			}
			if j < len(splitters) {
				hi = lowerBoundInRun(view, runLo, runRecs[r], st, qRec, samples[r], wordLess, splitters[j])
			}
			segs[r] = [2]int64{runLo + lo*st, runLo + hi*st}
		}
		mergeChunk(view, segs, stride, key, send)
	}
	var out int64
	ws2, err := extmem.RunOrdered(ctx, cfg, shared2, len(splitters)+1, mergeTask, workers, sortStreamDepth, func(_ int, batch []extmem.Word) {
		for _, w := range batch {
			ext.Write(out, w)
			out++
		}
	})
	return extmem.AddStatsVec(ws, ws2), err
}

// lowerBoundInRun returns the first record index in [0, runRec) of the
// run starting at word runLo whose (key, word) is not less than s. The
// native sample index (one sample per qRec records, record 0 included)
// confines the probe to a single sample gap of at most one block.
func lowerBoundInRun(view extmem.Extent, runLo, runRec, stride, qRec int64, samples []extmem.Word, wordLess func(a, b extmem.Word) bool, s extmem.Word) int64 {
	i := sort.Search(len(samples), func(i int) bool { return !wordLess(samples[i], s) })
	lo := int64(0)
	if i > 0 {
		lo = int64(i-1) * qRec
	}
	hi := int64(i) * qRec
	if hi > runRec {
		hi = runRec
	}
	for rec := lo; rec < hi; rec++ {
		if !wordLess(view.Read(runLo+rec*stride), s) {
			return rec
		}
	}
	return hi
}

// mergeChunk k-way merges the sorted run segments segs (word ranges of
// view) with the stable (key, word, run) comparator of mergeRuns,
// streaming the merged records out in batches.
func mergeChunk(view extmem.Extent, segs [][2]int64, stride int, key Key, send func([]extmem.Word) bool) {
	h := make([]mergeEnt, 0, len(segs))
	pos := make([]int64, len(segs))
	for r, seg := range segs {
		pos[r] = seg[0]
		if seg[0] < seg[1] {
			w := view.Read(seg[0])
			h = append(h, mergeEnt{key(w), w, int32(r)})
		}
	}
	heapifyMerge(h)
	batch := make([]extmem.Word, 0, sortBatchWords)
	for len(h) > 0 {
		r := int(h[0].run)
		for s := 0; s < stride; s++ {
			batch = append(batch, view.Read(pos[r]+int64(s)))
		}
		if len(batch) >= sortBatchWords {
			if !send(batch) {
				return
			}
			batch = make([]extmem.Word, 0, sortBatchWords)
		}
		pos[r] += int64(stride)
		if pos[r] < segs[r][1] {
			w := view.Read(pos[r])
			h[0].k, h[0].w = key(w), w
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		downMerge(h, 0)
	}
	if len(batch) > 0 {
		send(batch)
	}
}
