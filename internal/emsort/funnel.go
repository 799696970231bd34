package emsort

import (
	"math"

	"repro/internal/extmem"
)

// FunnelSortRecords sorts fixed-stride records cache-obliviously with
// lazy funnelsort, achieving the optimal O((n/B)·log_{M/B}(n/B)) I/Os
// under the tall-cache assumption without ever consulting M or B.
//
// Structure (Frigo–Leiserson–Prokop–Ramachandran; lazy variant of Brodal
// and Fagerberg): split the input into k = ceil(n^(1/3)) segments, sort
// them recursively, and merge with a k-funnel. A k-funnel is a binary
// merge tree laid out by van-Emde-Boas-style recursion: a funnel over J
// streams splits into a top funnel over ~sqrt(J) sub-funnels, and each
// sub-funnel's output buffer has capacity J^(3/2) records, so a sub-funnel
// with j leaves owns a buffer of ~j^3 records. Buffers are refilled lazily
// when drained.
func FunnelSortRecords(ext extmem.Extent, stride int, key Key) {
	n := ext.Len()
	if n%int64(stride) != 0 {
		panic("emsort: extent length not a multiple of record stride")
	}
	funnelSortRec(ext, stride, key)
}

// funnelBaseRecords is the constant base-case size below which segments
// are sorted through a native buffer of O(1) words.
const funnelBaseRecords = 128

func funnelSortRec(ext extmem.Extent, stride int, key Key) {
	nRec := ext.Len() / int64(stride)
	if nRec <= funnelBaseRecords {
		if nRec > 1 {
			tmp := make([]extmem.Word, ext.Len())
			ext.Load(tmp)
			sortNative(tmp, stride, key)
			ext.Store(tmp)
		}
		return
	}
	// Split into k ~ n^(1/3) segments of ~n^(2/3) records each and sort
	// them recursively.
	k := int(math.Ceil(math.Cbrt(float64(nRec))))
	segRec := (nRec + int64(k) - 1) / int64(k)
	var segs []extmem.Extent
	for lo := int64(0); lo < nRec; lo += segRec {
		seg := ext.Slice(lo*int64(stride), min(lo+segRec, nRec)*int64(stride))
		funnelSortRec(seg, stride, key)
		segs = append(segs, seg)
	}
	// Merge the sorted segments back into ext with a k-funnel.
	sp := ext.Space()
	mark := sp.Mark()
	defer sp.Release(mark)
	out := sp.Alloc(ext.Len())
	leaves := make([]*funnelNode, len(segs))
	for i, s := range segs {
		leaves[i] = &funnelNode{stream: s, stride: int64(stride), key: key, leaf: true}
	}
	root := buildFunnelRec(sp, leaves, int64(stride), key)
	root.out = out
	root.outCapRec = out.Len() / int64(stride)
	root.refill()
	out.CopyTo(ext)
}

// funnelNode is either a leaf (stream != zero extent semantics, streaming a
// sorted segment) or a binary merger with an output buffer.
type funnelNode struct {
	stride int64
	key    Key

	// Leaf state.
	stream    extmem.Extent
	streamPos int64 // in words
	leaf      bool

	// Internal-node state.
	left, right *funnelNode
	out         extmem.Extent // output buffer (records)
	outCapRec   int64
	outLenRec   int64 // filled records
	outPosRec   int64 // consumed records
	exhausted   bool
}

// buildFunnelRec builds the merge tree over the given input nodes
// following the funnel recursion, allocating intermediate buffers in sp.
func buildFunnelRec(sp *extmem.Space, inputs []*funnelNode, stride int64, key Key) *funnelNode {
	k := len(inputs)
	if k == 1 {
		return inputs[0]
	}
	if k == 2 {
		return &funnelNode{stride: stride, key: key, left: inputs[0], right: inputs[1]}
	}
	// Split into g ~ sqrt(k) groups; each group becomes a sub-funnel with
	// an output buffer of k^(3/2) records.
	g := int(math.Ceil(math.Sqrt(float64(k))))
	bufRec := int64(math.Ceil(math.Pow(float64(k), 1.5)))
	if bufRec < 8 {
		bufRec = 8
	}
	per := (k + g - 1) / g
	var tops []*funnelNode
	for lo := 0; lo < k; lo += per {
		hi := lo + per
		if hi > k {
			hi = k
		}
		sub := buildFunnelRec(sp, inputs[lo:hi], stride, key)
		if sub.left != nil && sub.out.Len() == 0 {
			// Give the sub-funnel root its middle buffer.
			sub.out = sp.Alloc(bufRec * stride)
			sub.outCapRec = bufRec
		}
		tops = append(tops, sub)
	}
	return buildFunnelRec(sp, tops, stride, key)
}

// empty reports whether the node has no buffered record ready.
func (v *funnelNode) empty() bool {
	if v.leaf {
		return v.streamPos >= v.stream.Len()
	}
	return v.outPosRec >= v.outLenRec
}

// done reports whether the node will never produce another record.
func (v *funnelNode) done() bool {
	if v.leaf {
		return v.streamPos >= v.stream.Len()
	}
	return v.exhausted && v.empty()
}

// head returns the key and full first word of the next record — ties on
// key are broken by the word, the tie-break contract shared by every
// sorter in this package. Caller ensures !empty().
func (v *funnelNode) head() (k uint64, w extmem.Word) {
	if v.leaf {
		w = v.stream.Read(v.streamPos)
	} else {
		w = v.out.Read(v.outPosRec * v.stride)
	}
	return v.key(w), w
}

// pop copies the node's next record into dst starting at word dstOff.
func (v *funnelNode) pop(dst extmem.Extent, dstOff int64) {
	if v.leaf {
		for s := int64(0); s < v.stride; s++ {
			dst.Write(dstOff+s, v.stream.Read(v.streamPos+s))
		}
		v.streamPos += v.stride
		return
	}
	src := v.outPosRec * v.stride
	for s := int64(0); s < v.stride; s++ {
		dst.Write(dstOff+s, v.out.Read(src+s))
	}
	v.outPosRec++
}

// ensure makes the child ready to produce, refilling if drained.
func (v *funnelNode) ensure() {
	if v.leaf || !v.empty() || v.exhausted {
		return
	}
	v.refill()
}

// refill fills the node's output buffer as full as possible by merging its
// children (lazily refilling them when they drain).
func (v *funnelNode) refill() {
	v.outPosRec = 0
	v.outLenRec = 0
	l, r := v.left, v.right
	for v.outLenRec < v.outCapRec {
		l.ensure()
		r.ensure()
		le, re := l.empty(), r.empty()
		if le && re {
			v.exhausted = true
			return
		}
		var from *funnelNode
		switch {
		case le:
			from = r
		case re:
			from = l
		default:
			lk, lw := l.head()
			rk, rw := r.head()
			if lk < rk || (lk == rk && lw <= rw) {
				from = l
			} else {
				from = r
			}
		}
		from.pop(v.out, v.outLenRec*v.stride)
		v.outLenRec++
	}
}
