// Package emsort provides external-memory sorting over extmem extents.
//
// Three sorters are provided:
//
//   - SortRecords: cache-aware multiway mergesort. Runs of Θ(M) words are
//     formed in internal memory, then merged Θ(M/B) ways per pass,
//     achieving the optimal sort(n) = O((n/B)·log_{M/B}(n/B)) I/Os.
//   - ObliviousSortRecords: cache-oblivious bottom-up binary mergesort
//     using no knowledge of M or B; O((n/B)·log2(n)) I/Os. Simple and
//     robust; used as the reference oblivious sorter.
//   - FunnelSortRecords: cache-oblivious lazy funnelsort (Frigo et al.;
//     lazy variant of Brodal–Fagerberg) achieving the optimal
//     O((n/B)·log_{M/B}(n/B)) I/Os under the tall-cache assumption.
//
// All sorters order fixed-stride records by a key extracted from the first
// word of each record (stride 1 sorts plain words). ParallelSortRecords
// runs the cache-aware sort on a worker pool with output byte-identical
// to SortRecords' (parallel.go); it is the one parallel sort. Distribute
// groups words by a small key in O(n/B) I/Os per pass, stably, with no
// comparator (distribute.go).
package emsort

import (
	"sort"

	"repro/internal/extmem"
)

// Key extracts the sort key from the first word of a record.
type Key func(extmem.Word) uint64

// Identity orders words by their own value; the common case for packed
// edges, whose lexicographic (u,v) order coincides with uint64 order.
func Identity(w extmem.Word) uint64 { return w }

// sortPlan is the run/merge geometry of the cache-aware multiway
// mergesort, a pure function of the available internal memory and the
// record stride. The sequential and parallel sorts compute it from the
// same inputs, which is what makes the parallel sort's runs — and hence
// its output bytes — identical to the sequential sort's.
type sortPlan struct {
	// runWords is the formation-run length: up to 3/4 of the available
	// internal memory, rounded to whole records.
	runWords int64
	// fanIn is the merge fan-in k, limited by block frames: k input
	// streams plus one output stream, plus heap state.
	fanIn int
}

// planSort computes the multiway sort geometry for a space with avail
// words of free internal memory. avail must be at least 8*B (callers
// below that fall back to the oblivious sorter).
func planSort(cfg extmem.Config, avail, stride int) sortPlan {
	runWords := int64(avail/4*3) / int64(stride) * int64(stride)
	if runWords < 2*int64(stride) {
		runWords = 2 * int64(stride)
	}
	k := avail/cfg.B - 2
	if k < 2 {
		k = 2
	}
	if k > 1<<16 {
		k = 1 << 16
	}
	return sortPlan{runWords: runWords, fanIn: k}
}

// SortRecords sorts fixed-size records of stride words in place, ordered
// by key(record[0]), using cache-aware multiway mergesort with the
// Space's configured M and B. ext.Len() must be a multiple of stride.
func SortRecords(ext extmem.Extent, stride int, key Key) {
	n := ext.Len()
	if n%int64(stride) != 0 {
		panic("emsort: extent length not a multiple of record stride")
	}
	if n <= int64(stride) {
		return
	}
	sp := ext.Space()
	cfg := sp.Config()
	avail := cfg.M - sp.Leased()
	if avail < 8*cfg.B {
		// Too little internal memory remains for multiway merging; fall
		// back to the oblivious sorter, which needs only O(1) state.
		ObliviousSortRecords(ext, stride, key)
		return
	}
	plan := planSort(cfg, avail, stride)
	runWords := plan.runWords
	if n <= runWords {
		loadSortStore(ext, stride, key)
		return
	}
	for lo := int64(0); lo < n; lo += runWords {
		hi := lo + runWords
		if hi > n {
			hi = n
		}
		loadSortStore(ext.Slice(lo, hi), stride, key)
	}
	k := plan.fanIn
	mark := sp.Mark()
	scratch := sp.Alloc(n)
	src, dst := ext, scratch
	for runLen := runWords; runLen < n; runLen *= int64(k) {
		mergePass(src, dst, runLen, k, stride, key)
		src, dst = dst, src
	}
	if src.Base() != ext.Base() {
		src.CopyTo(ext)
	}
	sp.Release(mark)
}

// mergePass merges groups of up to k sorted runs of runLen words from src
// into dst.
func mergePass(src, dst extmem.Extent, runLen int64, k, stride int, key Key) {
	n := src.Len()
	group := runLen * int64(k)
	for glo := int64(0); glo < n; glo += group {
		ghi := glo + group
		if ghi > n {
			ghi = n
		}
		mergeRuns(src.Slice(glo, ghi), dst.Slice(glo, ghi), runLen, stride, key)
	}
}

// mergeRuns k-way merges consecutive sorted runs of runLen words in src
// into dst using a native tournament heap. The heap and cursor state are
// O(k) words and are leased from internal memory.
//
// Ties are broken first by the full first word — the contract every
// sorter in this package shares, and the one Distribute matches on
// word-sorted input — and then by
// run index, so the merge is stable with respect to run order and the
// multi-pass result equals one big stable merge of all runs.
func mergeRuns(src, dst extmem.Extent, runLen int64, stride int, key Key) {
	n := src.Len()
	if n <= runLen {
		src.CopyTo(dst)
		return
	}
	numRuns := int((n + runLen - 1) / runLen)
	sp := src.Space()
	release := sp.Lease(numRuns * 4)
	defer release()

	pos := make([]int64, numRuns) // next unread word of each run
	end := make([]int64, numRuns)
	h := make([]mergeEnt, 0, numRuns)
	for r := 0; r < numRuns; r++ {
		pos[r] = int64(r) * runLen
		end[r] = pos[r] + runLen
		if end[r] > n {
			end[r] = n
		}
		w := src.Read(pos[r])
		h = append(h, mergeEnt{key(w), w, int32(r)})
	}
	heapifyMerge(h)
	out := int64(0)
	for len(h) > 0 {
		r := int(h[0].run)
		for s := 0; s < stride; s++ {
			dst.Write(out, src.Read(pos[r]+int64(s)))
			out++
		}
		pos[r] += int64(stride)
		if pos[r] < end[r] {
			w := src.Read(pos[r])
			h[0].k, h[0].w = key(w), w
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		downMerge(h, 0)
	}
}

// mergeEnt is one tournament-heap entry of a k-way run merge: the key and
// full first word of a run's head record, plus the run index for stable
// tie-breaking.
type mergeEnt struct {
	k   uint64
	w   extmem.Word
	run int32
}

func mergeLess(a, b mergeEnt) bool {
	if a.k != b.k {
		return a.k < b.k
	}
	if a.w != b.w {
		return a.w < b.w
	}
	return a.run < b.run
}

func heapifyMerge(h []mergeEnt) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		downMerge(h, i)
	}
}

func downMerge(h []mergeEnt, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && mergeLess(h[l], h[m]) {
			m = l
		}
		if r < len(h) && mergeLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// loadSortStore sorts an extent that fits in the internal-memory budget by
// loading it into a leased native buffer, sorting, and storing back.
func loadSortStore(ext extmem.Extent, stride int, key Key) {
	n := ext.Len()
	sp := ext.Space()
	release := sp.Lease(int(n))
	defer release()
	buf := make([]extmem.Word, n)
	ext.Load(buf)
	sortNative(buf, stride, key)
	ext.Store(buf)
}

// sortNative sorts records in a native buffer.
func sortNative(buf []extmem.Word, stride int, key Key) {
	if stride == 1 {
		sort.Slice(buf, func(i, j int) bool {
			ki, kj := key(buf[i]), key(buf[j])
			return ki < kj || (ki == kj && buf[i] < buf[j])
		})
		return
	}
	rs := &recSorter{buf: buf, stride: stride, key: key}
	sort.Sort(rs)
}

type recSorter struct {
	buf    []extmem.Word
	stride int
	key    Key
}

func (r *recSorter) Len() int { return len(r.buf) / r.stride }

func (r *recSorter) Less(i, j int) bool {
	a, b := r.buf[i*r.stride], r.buf[j*r.stride]
	ka, kb := r.key(a), r.key(b)
	return ka < kb || (ka == kb && a < b)
}

func (r *recSorter) Swap(i, j int) {
	for s := 0; s < r.stride; s++ {
		r.buf[i*r.stride+s], r.buf[j*r.stride+s] = r.buf[j*r.stride+s], r.buf[i*r.stride+s]
	}
}

// obliviousBaseRecords is the constant-size base case of the oblivious
// sorters: runs of this many records are sorted through an O(1)-word native
// buffer. Constant extra registers are permitted in the cache-oblivious
// model; this is purely a constant-factor optimization.
const obliviousBaseRecords = 64

// ObliviousSortRecords sorts fixed-stride records without consulting M or
// B: bottom-up binary mergesort with ping-pong buffers, O((n/B)·log2 n)
// I/Os.
func ObliviousSortRecords(ext extmem.Extent, stride int, key Key) {
	n := ext.Len()
	if n%int64(stride) != 0 {
		panic("emsort: extent length not a multiple of record stride")
	}
	if n <= int64(stride) {
		return
	}
	base := int64(obliviousBaseRecords * stride)
	tmp := make([]extmem.Word, base)
	for lo := int64(0); lo < n; lo += base {
		hi := lo + base
		if hi > n {
			hi = n
		}
		seg := ext.Slice(lo, hi)
		t := tmp[:hi-lo]
		seg.Load(t)
		sortNative(t, stride, key)
		seg.Store(t)
	}
	if n <= base {
		return
	}
	sp := ext.Space()
	mark := sp.Mark()
	scratch := sp.Alloc(n)
	src, dst := ext, scratch
	for width := base; width < n; width *= 2 {
		for lo := int64(0); lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			mergeTwo(src, dst, lo, mid, hi, stride, key)
		}
		src, dst = dst, src
	}
	if src.Base() != ext.Base() {
		src.CopyTo(ext)
	}
	sp.Release(mark)
}

// mergeTwo merges src[lo:mid] and src[mid:hi] (both sorted) into
// dst[lo:hi].
func mergeTwo(src, dst extmem.Extent, lo, mid, hi int64, stride int, key Key) {
	i, j, out := lo, mid, lo
	st := int64(stride)
	for i < mid && j < hi {
		wi, wj := src.Read(i), src.Read(j)
		ki, kj := key(wi), key(wj)
		if ki < kj || (ki == kj && wi <= wj) {
			for s := int64(0); s < st; s++ {
				dst.Write(out, src.Read(i+s))
				out++
			}
			i += st
		} else {
			for s := int64(0); s < st; s++ {
				dst.Write(out, src.Read(j+s))
				out++
			}
			j += st
		}
	}
	for ; i < mid; i++ {
		dst.Write(out, src.Read(i))
		out++
	}
	for ; j < hi; j++ {
		dst.Write(out, src.Read(j))
		out++
	}
}

// IsSorted reports whether the records of ext are in nondecreasing key
// order (ties broken by full first word, matching the sorters).
func IsSorted(ext extmem.Extent, stride int, key Key) bool {
	n := ext.Len()
	st := int64(stride)
	for i := st; i < n; i += st {
		a, b := ext.Read(i-st), ext.Read(i)
		ka, kb := key(a), key(b)
		if ka > kb || (ka == kb && a > b) {
			return false
		}
	}
	return true
}
