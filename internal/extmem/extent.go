package extmem

import "fmt"

// Extent is a contiguous region of external memory, the unit algorithms
// operate on (an edge file, a bucket, a scratch buffer). Extents are cheap
// values; sub-slicing does not copy.
type Extent struct {
	sp   *Space
	base int64
	n    int64
}

// Len returns the extent length in words.
func (e Extent) Len() int64 { return e.n }

// Base returns the starting address of the extent in its Space.
func (e Extent) Base() int64 { return e.base }

// Space returns the Space the extent lives in.
func (e Extent) Space() *Space { return e.sp }

// Read returns word i of the extent.
func (e Extent) Read(i int64) Word {
	if i < 0 || i >= e.n {
		panic(fmt.Sprintf("extmem: extent read out of range: %d not in [0,%d)", i, e.n))
	}
	return e.sp.Read(e.base + i)
}

// Write stores v at word i of the extent.
func (e Extent) Write(i int64, v Word) {
	if i < 0 || i >= e.n {
		panic(fmt.Sprintf("extmem: extent write out of range: %d not in [0,%d)", i, e.n))
	}
	e.sp.Write(e.base+i, v)
}

// Slice returns the sub-extent [lo, hi).
func (e Extent) Slice(lo, hi int64) Extent {
	if lo < 0 || hi < lo || hi > e.n {
		panic(fmt.Sprintf("extmem: bad extent slice [%d,%d) of %d", lo, hi, e.n))
	}
	return Extent{sp: e.sp, base: e.base + lo, n: hi - lo}
}

// Prefix returns the sub-extent [0, n).
func (e Extent) Prefix(n int64) Extent { return e.Slice(0, n) }

// View returns the extent's words from i to the end of i's block, or of
// the extent if that comes first; on a native Space, to the end of i's
// region (the read-only core or the scratch above it) or of the extent.
// The view aliases the Space's storage: it must not be written, and it is
// valid until the next call on the Space. It costs one block fetch and
// counts its words as read, so a scan by views is charged exactly like
// the same words read one at a time.
func (e Extent) View(i int64) []Word {
	if i < 0 || i >= e.n {
		panic(fmt.Sprintf("extmem: extent view out of range: %d not in [0,%d)", i, e.n))
	}
	return e.sp.view(e.base+i, e.viewLen(i))
}

// viewLen is the length of the view at word i.
func (e Extent) viewLen(i int64) int64 { return min(e.n-i, e.sp.span(e.base+i)) }

// Load copies the extent into the native slice dst (which must be at least
// Len words). The words pass through the cache, so the copy is charged the
// usual scan cost; the caller is responsible for leasing space for dst.
func (e Extent) Load(dst []Word) {
	if int64(len(dst)) < e.n {
		panic("extmem: Load destination too small")
	}
	for i := int64(0); i < e.n; {
		i += int64(copy(dst[i:], e.View(i)))
	}
}

// Store copies the native slice src into the extent (charged as a scan).
func (e Extent) Store(src []Word) {
	if int64(len(src)) > e.n {
		panic("extmem: Store source too large")
	}
	e = e.Prefix(int64(len(src)))
	for i := int64(0); i < e.n; {
		i += int64(copy(e.sp.writeView(e.base+i, e.viewLen(i)), src[i:]))
	}
}

// CopyTo copies the extent into dst, which must be at least as long and
// must not overlap it. It copies in pieces that end at the next block
// boundary of either side, fetching each piece's source block before its
// destination block, so it is charged exactly like copying word by word.
func (e Extent) CopyTo(dst Extent) {
	if dst.n < e.n {
		panic("extmem: CopyTo destination too small")
	}
	if e.sp == dst.sp && e.base < dst.base+e.n && dst.base < e.base+e.n {
		panic(fmt.Sprintf("extmem: CopyTo between overlapping extents at %d and %d", e.base, dst.base))
	}
	for i := int64(0); i < e.n; {
		n := min(e.viewLen(i), dst.sp.span(dst.base+i))
		src := e.sp.view(e.base+i, n)
		// src's frame is now the most recent, and fetching the destination
		// block evicts the least recent, so src stays valid.
		i += int64(copy(dst.sp.writeView(dst.base+i, n), src))
	}
}

// Fill sets every word of the extent to v.
func (e Extent) Fill(v Word) {
	for i := int64(0); i < e.n; {
		w := e.sp.writeView(e.base+i, e.viewLen(i))
		for j := range w {
			w[j] = v
		}
		i += int64(len(w))
	}
}
