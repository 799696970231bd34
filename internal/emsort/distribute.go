package emsort

import (
	"fmt"

	"repro/internal/extmem"
)

// Distribute writes the words of src into dst grouped by key — every word
// of key 0, then every word of key 1, and so on — and returns the
// buckets+1 group offsets: group b is dst[off[b], off[b+1]). The
// distribution is stable: words with equal keys keep their input order.
// On input sorted by word the output is therefore byte-identical to
// SortRecords(src, 1, key), whose ties are broken by the full word.
//
// One counting scan builds the histogram. Then each pass of fan-out f
// scans its input once and appends every word to the native one-block
// buffer of its group, which is written out when it reaches a block
// boundary of its destination. The buffers and cursors are leased for the
// pass and leave the cache two frames. When the buckets do not fit one
// pass, the passes run on base-f digits of the key, least significant
// first, each into fresh scratch, and take their counts from the
// histogram. So a pass costs at most 3·⌈n/B⌉ + 2·f block transfers on a
// block-aligned src and a fresh dst (a dst block written before is read
// once more first), and key is evaluated once per word per scan.
//
// dst must hold src.Len() words, live in src's Space and not overlap src;
// a key outside [0, buckets) panics. The offsets are leased while
// Distribute runs; a caller that keeps them leases them itself. The pass
// geometry is a function of (M, B, Leased(), buckets) only.
func Distribute(dst, src extmem.Extent, buckets int, key Key) []int64 {
	n := src.Len()
	if buckets < 1 {
		panic("emsort: Distribute needs at least one bucket")
	}
	if dst.Len() < n {
		panic("emsort: Distribute destination smaller than source")
	}
	sp := src.Space()
	lease := sp.LeaseAtMost(buckets + 1)
	defer lease.Release()
	fan, passes := distributePlan(sp.Config(), sp.Config().M-sp.Leased(), buckets)

	// Counting scan: off[k+1] counts key k, then prefix sums.
	off := make([]int64, buckets+1)
	for i := int64(0); i < n; {
		view := src.View(i)
		for _, w := range view {
			k := key(w)
			if k >= uint64(buckets) {
				panic(fmt.Sprintf("emsort: Distribute key %d out of range [0,%d)", k, buckets))
			}
			off[k+1]++
		}
		i += int64(len(view))
	}
	for b := 1; b <= buckets; b++ {
		off[b] += off[b-1]
	}

	mark := sp.Mark()
	defer sp.Release(mark)
	in := src
	f := uint64(fan)
	for p, unit := 0, uint64(1); p < passes; p, unit = p+1, unit*f {
		// Group d of this pass holds the keys whose p-th base-f digit is
		// d; its start is the number of words with a smaller digit.
		at := make([]int64, fan)
		for k := 0; k < buckets; k++ {
			if d := int(uint64(k) / unit % f); d+1 < fan {
				at[d+1] += off[k+1] - off[k]
			}
		}
		for d := 1; d < fan; d++ {
			at[d] += at[d-1]
		}
		out := dst
		if p < passes-1 {
			out = sp.Alloc(n)
		}
		u := unit
		scatter(out, in, at, func(w extmem.Word) int { return int(key(w) / u % f) })
		in = out
	}
	return off
}

// distributePlan returns the fan-out of each pass and the number of passes
// for distributing into buckets groups with avail words of internal memory
// left after the offsets' lease. A pass of fan-out f leases f block
// buffers and 2f cursor words, and the cache keeps two frames. Above the
// largest such f, the passes share one fan-out: the smallest f whose
// passes-th power covers buckets.
func distributePlan(cfg extmem.Config, avail, buckets int) (fan, passes int) {
	maxFan := (avail - 2*cfg.B) / (cfg.B + 2)
	if maxFan < 2 {
		maxFan = 2
	}
	if buckets <= maxFan {
		return buckets, 1
	}
	passes = 1
	for reach := maxFan; reach < buckets; reach *= maxFan {
		passes++
	}
	covers := func(f int) bool {
		r := 1
		for i := 0; i < passes && r < buckets; i++ {
			r *= f
		}
		return r >= buckets
	}
	fan = 2
	for !covers(fan) {
		fan++
	}
	return fan, passes
}

// scatter copies src into dst stably by group(w) ∈ [0, len(at)), writing
// group g's words from dst index at[g] on (at is advanced). Each group's
// words collect in a native one-block buffer that is written to dst when
// it reaches a block boundary of dst, so every dst block is written in at
// most two pieces — the two groups that meet inside it.
func scatter(dst, src extmem.Extent, at []int64, group func(extmem.Word) int) {
	sp := src.Space()
	b := sp.Config().B
	f := len(at)
	lease := sp.LeaseAtMost(f*b + 2*f)
	defer lease.Release()
	buf := make([]extmem.Word, f*b)
	fill := make([]int, f)
	mask := int64(b - 1)
	flush := func(g int) {
		k := fill[g]
		dst.Slice(at[g], at[g]+int64(k)).Store(buf[g*b : g*b+k])
		at[g] += int64(k)
		fill[g] = 0
	}
	n := src.Len()
	for i := int64(0); i < n; i++ {
		w := src.Read(i)
		g := group(w)
		buf[g*b+fill[g]] = w
		fill[g]++
		if (dst.Base()+at[g]+int64(fill[g]))&mask == 0 {
			flush(g)
		}
	}
	for g := range fill {
		if fill[g] > 0 {
			flush(g)
		}
	}
}
